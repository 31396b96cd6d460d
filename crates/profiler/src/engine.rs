//! The attribution engine and the adaptive suspect list.
//!
//! Each monitor tick the cluster feeds one observation per live node:
//! the node's measured power (possibly fault-degraded), its utilization,
//! whether it is running at the nominal V/F point, and its in-flight URL
//! mix. At the nominal point the server power law
//! ([`ServerPowerModel::power`], where the DVFS factor is 1 for any γ)
//! is linear in the per-URL intensities:
//!
//! ```text
//! P = idle + u^e · Ī · H,   Ī = Σ_url share_url · I_url
//! ⇒ y = (P − idle) / (H · u^e) = Σ_url share_url · I_url
//! ```
//!
//! with `H` the model's dynamic headroom (nameplate − idle), so
//! `(shares, y)` is one EW-RLS observation. Off-nominal nodes are
//! skipped (the DVFS factor re-couples intensity and γ there), which
//! costs nothing: a throttled cluster still has nominal nodes every
//! rotation onset, and the forgetting factor keeps stale evidence from
//! pinning the estimate.

use crate::config::ProfilerConfig;
use crate::rls::EwRls;
use dcmetrics::OnlineSummary;
use netsim::request::UrlId;
use netsim::suspect::FlowClass;
use powercap::ServerPowerModel;
use simcore::FxHashMap;

/// Accounting of one run of the online profiler, for reports.
#[derive(Clone, Default, PartialEq)]
pub struct ProfilerReport {
    /// Learning observations absorbed (nominal-V/F node-ticks).
    pub observations: u64,
    /// Node-ticks skipped (off-nominal, idle, or unreadable sensor).
    pub skipped: u64,
    /// URLs tracked at the end of the run.
    pub tracked_urls: u64,
    /// URLs classified suspect at the end of the run.
    pub suspect_urls: u64,
    /// Classification flips published (promotions + demotions).
    pub reclassifications: u64,
    /// CUSUM drift detections (entry reset and re-learned).
    pub drift_events: u64,
    /// Entries demoted because they went unseen too long.
    pub stale_demotions: u64,
    /// Entries evicted to make room for newcomers.
    pub evictions: u64,
    /// Snapshot of the suspect list at every tick it changed, as
    /// `(tick, suspects)` pairs. Recorded only when
    /// [`ProfilerConfig::track_convergence`] is on — convergence-lag
    /// ("regret") studies replay the attacker's move plan against this
    /// timeline to measure how many slots each move stayed undetected.
    pub suspect_timeline: Vec<(u64, Vec<UrlId>)>,
}

// Hand-written so reports without a timeline render exactly as before
// the field existed: golden report files stay byte-identical for every
// run that does not opt into convergence tracking.
impl std::fmt::Debug for ProfilerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("ProfilerReport");
        d.field("observations", &self.observations);
        d.field("skipped", &self.skipped);
        d.field("tracked_urls", &self.tracked_urls);
        d.field("suspect_urls", &self.suspect_urls);
        d.field("reclassifications", &self.reclassifications);
        d.field("drift_events", &self.drift_events);
        d.field("stale_demotions", &self.stale_demotions);
        d.field("evictions", &self.evictions);
        if !self.suspect_timeline.is_empty() {
            d.field("suspect_timeline", &self.suspect_timeline);
        }
        d.finish()
    }
}

/// The classification artifact PDF consumes: URL → class with hysteresis
/// bands and minimum-sample gates so borderline URLs don't flap between
/// pools.
///
/// Unlike the offline [`netsim::suspect::SuspectList`], membership here
/// is earned from streamed evidence and can be revoked (drift, staleness,
/// eviction). Lookups are a single hash probe — the forwarding hot path
/// stays O(1) with no allocation.
#[derive(Debug, Clone)]
pub struct AdaptiveSuspectList {
    classes: FxHashMap<UrlId, FlowClass>,
    threshold: f64,
    hysteresis: f64,
    min_samples: u32,
    default_class: FlowClass,
}

impl AdaptiveSuspectList {
    /// Empty list classifying everything `default_class` until learned.
    pub(crate) fn new(cfg: &ProfilerConfig, default_class: FlowClass) -> Self {
        AdaptiveSuspectList {
            classes: FxHashMap::default(),
            threshold: cfg.threshold,
            hysteresis: cfg.hysteresis,
            min_samples: cfg.min_samples,
            default_class,
        }
    }

    /// Classify a URL (O(1), allocation-free).
    pub fn classify(&self, url: UrlId) -> FlowClass {
        self.classes.get(&url).copied().unwrap_or(self.default_class)
    }

    /// Convenience: is this URL currently suspect?
    pub fn is_suspect(&self, url: UrlId) -> bool {
        self.classify(url) == FlowClass::Suspect
    }

    /// The published class map (cloned into the forwarding policy).
    pub fn classes(&self) -> &FxHashMap<UrlId, FlowClass> {
        &self.classes
    }

    /// URLs currently classified, for reports.
    #[cfg(test)]
    pub(crate) fn classified(&self) -> usize {
        self.classes.len()
    }

    /// URLs currently suspect, sorted for deterministic iteration.
    pub(crate) fn suspects(&self) -> Vec<UrlId> {
        let mut v: Vec<UrlId> = self
            .classes
            .iter()
            .filter(|(_, &c)| c == FlowClass::Suspect)
            .map(|(&u, _)| u)
            .collect();
        v.sort_unstable();
        v
    }

    /// Feed a fresh estimate for `url`. Promotion requires the estimate
    /// above `threshold + hysteresis` with at least `min_samples`
    /// observations; demotion requires it below `threshold − hysteresis`.
    /// Inside the band the previous class sticks. Returns `true` when the
    /// published class changed.
    fn update(&mut self, url: UrlId, estimate: f64, samples: u32) -> bool {
        if samples < self.min_samples {
            return false;
        }
        let current = self.classes.get(&url).copied();
        let next = if estimate > self.threshold + self.hysteresis {
            Some(FlowClass::Suspect)
        } else if estimate < self.threshold - self.hysteresis {
            Some(FlowClass::Innocent)
        } else {
            current // hold inside the hysteresis band
        };
        match next {
            Some(c) if current != Some(c) => {
                self.classes.insert(url, c);
                true
            }
            _ => false,
        }
    }

    /// Revoke a URL's classification (drift, staleness, or eviction).
    /// Returns `true` if it was classified.
    fn revoke(&mut self, url: UrlId) -> bool {
        self.classes.remove(&url).is_some()
    }
}

/// Per-tracked-URL estimator state.
#[derive(Debug, Clone)]
struct UrlSlot {
    url: UrlId,
    /// Learning observations that included this URL.
    samples: u32,
    /// Monitor tick the URL last appeared in any node's mix.
    last_seen: u64,
    /// Welford summary of the estimate trajectory (confidence signal).
    estimates: OnlineSummary,
    /// Two-sided CUSUM accumulators on share-weighted normalized
    /// residuals.
    cusum_pos: f64,
    cusum_neg: f64,
}

/// The streaming power-attribution profiler.
///
/// Owns the EW-RLS estimator, the URL → coordinate assignment (with
/// eviction of the stalest entry at capacity), per-URL confidence
/// tracking, CUSUM drift detection, and the [`AdaptiveSuspectList`] it
/// publishes from.
#[derive(Debug, Clone)]
pub struct PowerProfiler {
    cfg: ProfilerConfig,
    rls: EwRls,
    /// URL → RLS coordinate.
    index: FxHashMap<UrlId, usize>,
    /// Coordinate → tracking state (`None` = free coordinate).
    slots: Vec<Option<UrlSlot>>,
    list: AdaptiveSuspectList,
    /// Global residual spread, for CUSUM normalization.
    residuals: OnlineSummary,
    /// Monitor ticks completed.
    tick: u64,
    stats: ProfilerReport,
    /// Scratch: the feature vector of the node being learned from.
    x: Vec<(usize, f64)>,
}

impl PowerProfiler {
    /// Profiler with the given configuration. The config must validate;
    /// see [`ProfilerConfig::validate`].
    pub fn new(cfg: ProfilerConfig) -> Self {
        assert!(
            cfg.validate().is_ok(),
            "ProfilerConfig must validate before constructing a PowerProfiler"
        );
        let mut rls = EwRls::new(
            cfg.max_urls,
            cfg.forgetting,
            cfg.prior_intensity,
            cfg.prior_variance,
        );
        rls.set_variance_cap(cfg.variance_cap);
        // A coordinate is live only while a URL holds it.
        for i in 0..cfg.max_urls {
            rls.release(i);
        }
        let list = AdaptiveSuspectList::new(&cfg, FlowClass::Innocent);
        let slots = vec![None; cfg.max_urls];
        PowerProfiler {
            cfg,
            rls,
            index: FxHashMap::default(),
            slots,
            list,
            residuals: OnlineSummary::new(),
            tick: 0,
            stats: ProfilerReport::default(),
            x: Vec::new(),
        }
    }

    /// The adaptive suspect list being published.
    pub fn list(&self) -> &AdaptiveSuspectList {
        &self.list
    }

    /// URLs currently tracked by the estimator.
    #[cfg(test)]
    pub(crate) fn tracked(&self) -> usize {
        self.index.len()
    }

    /// Current intensity estimate for `url`, clamped to `[0, 1]`.
    pub fn estimate(&self, url: UrlId) -> Option<f64> {
        self.index
            .get(&url)
            .map(|&i| self.rls.theta(i).clamp(0.0, 1.0))
    }

    /// Confidence summary for `url`: `(mean, std_dev, samples)` of its
    /// estimate trajectory.
    pub fn confidence(&self, url: UrlId) -> Option<(f64, f64, u64)> {
        let &i = self.index.get(&url)?;
        let s = self.slots[i].as_ref()?;
        Some((s.estimates.mean(), s.estimates.std_dev(), s.estimates.count()))
    }

    /// Run accounting with final tracked/suspect counts filled in.
    pub fn report(&self) -> ProfilerReport {
        let mut r = self.stats.clone();
        r.tracked_urls = self.index.len() as u64;
        r.suspect_urls = self.list.suspects().len() as u64;
        r
    }

    /// Mark a tracked `url` seen this tick; returns its coordinate.
    fn touch(&mut self, url: UrlId) -> Option<usize> {
        let &i = self.index.get(&url)?;
        if let Some(s) = self.slots[i].as_mut() {
            s.last_seen = self.tick;
        }
        Some(i)
    }

    /// Mark `url` seen this tick, assigning it a coordinate if untracked
    /// and evicting the stalest tracked URL if at capacity. Returns
    /// `None` only when every coordinate is pinned by the current
    /// observation (`busy`).
    fn ensure_tracked(&mut self, url: UrlId, busy: &[(UrlId, u32)]) -> Option<usize> {
        if let Some(i) = self.touch(url) {
            return Some(i);
        }
        let free = self.slots.iter().position(Option::is_none);
        let coord = match free {
            Some(i) => i,
            None => {
                // Evict the stalest URL not part of this observation;
                // ties break on URL id for determinism.
                let victim = self
                    .slots
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| s.as_ref().map(|s| (i, s)))
                    .filter(|(_, s)| !busy.iter().any(|&(u, _)| u == s.url))
                    .min_by_key(|(_, s)| (s.last_seen, s.url))?;
                let (i, old_url) = (victim.0, victim.1.url);
                self.index.remove(&old_url);
                self.list.revoke(old_url);
                self.stats.evictions += 1;
                i
            }
        };
        self.rls
            .reset_coord(coord, self.cfg.prior_intensity, self.cfg.prior_variance);
        self.slots[coord] = Some(UrlSlot {
            url,
            samples: 0,
            last_seen: self.tick,
            estimates: OnlineSummary::new(),
            cusum_pos: 0.0,
            cusum_neg: 0.0,
        });
        self.index.insert(url, coord);
        Some(coord)
    }

    /// Absorb one node's monitor-tick observation.
    ///
    /// `power_w` is the node's measured power (`None` when the sensor
    /// dropped the sample), `utilization` its busy-core fraction, and
    /// `at_nominal` whether the node's *effective* P-state is the top one
    /// (the only point where attribution is exactly linear). `mix` is the
    /// node's in-flight `(url, count)` snapshot, sorted by URL.
    pub fn observe_node(
        &mut self,
        power_w: Option<f64>,
        utilization: f64,
        at_nominal: bool,
        mix: &[(UrlId, u32)],
    ) {
        let total: u32 = mix.iter().map(|&(_, c)| c).sum();
        if total == 0 {
            return; // idle node: nothing to attribute or refresh
        }
        let usable = at_nominal && utilization > 0.0;
        let y = power_w
            .filter(|p| p.is_finite() && usable)
            .map(|p| mix_intensity(p, utilization));
        // Any appearance refreshes staleness, learned from or not. Mix
        // URLs are never eviction victims, so refreshing them as they are
        // tracked picks the same victims as refreshing them all first.
        let Some(y) = y.filter(|y| y.is_finite()) else {
            for &(url, _) in mix {
                self.touch(url);
            }
            self.stats.skipped += 1;
            return;
        };
        // Feature vector: in-flight shares of each tracked URL.
        let mut x = std::mem::take(&mut self.x);
        x.clear();
        for &(url, count) in mix {
            let Some(coord) = self.ensure_tracked(url, mix) else {
                continue; // more distinct URLs in one mix than capacity
            };
            x.push((coord, count as f64 / total as f64));
        }
        if x.is_empty() {
            self.stats.skipped += 1;
            self.x = x;
            return;
        }
        let residual = self.rls.observe(&x, y);
        self.stats.observations += 1;
        if residual.is_finite() {
            self.residuals.record(residual);
        }
        let sigma = self.residuals.std_dev().max(1e-3);
        let z = residual / sigma;
        for &(coord, share) in &x {
            let Some(slot) = self.slots[coord].as_mut() else {
                continue;
            };
            slot.samples += 1;
            let est = self.rls.theta(coord).clamp(0.0, 1.0);
            slot.estimates.record(est);
            if slot.samples <= self.cfg.cusum_warmup {
                continue; // initial transient is not drift
            }
            slot.cusum_pos = (slot.cusum_pos + z * share - self.cfg.cusum_slack).max(0.0);
            slot.cusum_neg = (slot.cusum_neg - z * share - self.cfg.cusum_slack).max(0.0);
            if slot.cusum_pos > self.cfg.cusum_threshold
                || slot.cusum_neg > self.cfg.cusum_threshold
            {
                // Drift: this URL's coefficient no longer explains the
                // power it draws. Demote it and re-learn from scratch.
                let url = slot.url;
                slot.samples = 0;
                slot.estimates = OnlineSummary::new();
                slot.cusum_pos = 0.0;
                slot.cusum_neg = 0.0;
                self.rls
                    .reset_coord(coord, self.cfg.prior_intensity, self.cfg.prior_variance);
                if self.list.revoke(url) {
                    self.stats.reclassifications += 1;
                }
                self.stats.drift_events += 1;
            }
        }
        self.x = x;
    }

    /// Close the current monitor tick: demote stale entries, refresh the
    /// published classifications, and report whether the class map
    /// changed (the caller re-publishes into the forwarding policy only
    /// then).
    pub fn end_tick(&mut self) -> bool {
        self.tick += 1;
        let mut changed = false;
        for coord in 0..self.slots.len() {
            let Some(slot) = self.slots[coord].as_ref() else {
                continue;
            };
            let (url, samples) = (slot.url, slot.samples);
            if self.tick.saturating_sub(slot.last_seen) > self.cfg.stale_after_slots {
                // Unseen too long: release the coordinate and the class.
                self.slots[coord] = None;
                self.index.remove(&url);
                self.rls
                    .reset_coord(coord, self.cfg.prior_intensity, self.cfg.prior_variance);
                self.rls.release(coord);
                self.stats.stale_demotions += 1;
                if self.list.revoke(url) {
                    self.stats.reclassifications += 1;
                    changed = true;
                }
                continue;
            }
            let est = self.rls.theta(coord).clamp(0.0, 1.0);
            if self.list.update(url, est, samples) {
                self.stats.reclassifications += 1;
                changed = true;
            }
        }
        if changed && self.cfg.track_convergence {
            self.stats
                .suspect_timeline
                .push((self.tick, self.list.suspects()));
        }
        changed
    }
}

/// One observation's regression target: the mix intensity `Ī` that
/// explains `power_w` at `utilization` on a node at the nominal P-state,
/// by inverting the plant's power law.
fn mix_intensity(power_w: f64, utilization: f64) -> f64 {
    let m = ServerPowerModel::paper_default();
    (power_w - m.idle_w) / (m.dynamic_headroom_w() * utilization.powf(m.util_exponent))
}

/// The plant's power at the nominal P-state, for synthetic observations
/// (a mix's mean intensity can round one ulp past 1).
#[cfg(test)]
fn plant_power(utilization: f64, intensity: f64, gamma: f64) -> f64 {
    let m = ServerPowerModel::paper_default();
    m.power(m.table.max_state(), utilization, intensity.min(1.0), gamma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg() -> ProfilerConfig {
        ProfilerConfig::default()
    }

    proptest! {
        /// The profiler's target inverts the plant: for any load and any
        /// γ, the power a nominal node draws maps back to the intensity
        /// that drew it.
        #[test]
        fn prop_target_inverts_the_plant_power_law(
            u in (0.0f64..1.0).prop_map(|x| 1.0 - x),
            intensity in (0.0f64..1.0).prop_map(|x| 1.0 - x),
            gamma in 0.0f64..=1.0,
        ) {
            let y = mix_intensity(plant_power(u, intensity, gamma), u);
            prop_assert!((y - intensity).abs() < 1e-12, "y={} intensity={}", y, intensity);
        }
    }

    /// Synthetic node power at nominal V/F for a mix of true intensities.
    fn power_of(u: f64, mix: &[(UrlId, u32)], truth: &[(UrlId, f64)]) -> f64 {
        let total: u32 = mix.iter().map(|&(_, n)| n).sum();
        let mean_i: f64 = mix
            .iter()
            .map(|&(url, n)| {
                let i = truth
                    .iter()
                    .find(|&&(u2, _)| u2 == url)
                    .map(|&(_, i)| i)
                    .unwrap_or(0.5);
                i * n as f64 / total as f64
            })
            .sum();
        plant_power(u, mean_i, 0.9)
    }

    #[test]
    fn learns_and_classifies_a_two_url_mix() {
        let c = cfg();
        let truth = [(UrlId(0), 0.98), (UrlId(3), 0.35)];
        let mut p = PowerProfiler::new(c.clone());
        for round in 0..10u32 {
            // Two nodes with different mixes each tick.
            let m1 = [(UrlId(0), 3 + round % 2), (UrlId(3), 1)];
            let m2 = [(UrlId(0), 1), (UrlId(3), 4)];
            p.observe_node(Some(power_of(0.8, &m1, &truth)), 0.8, true, &m1);
            p.observe_node(Some(power_of(0.5, &m2, &truth)), 0.5, true, &m2);
            p.end_tick();
        }
        assert!(p.list().is_suspect(UrlId(0)));
        assert!(!p.list().is_suspect(UrlId(3)));
        assert!((p.estimate(UrlId(0)).unwrap() - 0.98).abs() < 0.02);
        assert!((p.estimate(UrlId(3)).unwrap() - 0.35).abs() < 0.02);
        let r = p.report();
        assert_eq!(r.tracked_urls, 2);
        assert_eq!(r.suspect_urls, 1);
        assert!(r.observations >= 20);
    }

    #[test]
    fn off_nominal_and_dropped_samples_are_skipped() {
        let mut p = PowerProfiler::new(cfg());
        let m = [(UrlId(0), 2)];
        p.observe_node(Some(90.0), 0.5, false, &m); // throttled
        p.observe_node(None, 0.5, true, &m); // sensor dropout
        p.observe_node(Some(90.0), 0.0, true, &m); // no load signal
        assert_eq!(p.report().observations, 0);
        assert_eq!(p.report().skipped, 3);
        // Nothing learned → nothing classified.
        assert!(!p.list().is_suspect(UrlId(0)));
    }

    #[test]
    fn min_sample_gate_blocks_early_promotion() {
        let c = cfg();
        let truth = [(UrlId(7), 0.95)];
        let mut p = PowerProfiler::new(c.clone());
        let m = [(UrlId(7), 4)];
        // Two observations < min_samples (3): no class yet.
        for _ in 0..2 {
            p.observe_node(Some(power_of(0.9, &m, &truth)), 0.9, true, &m);
        }
        p.end_tick();
        assert!(!p.list().is_suspect(UrlId(7)));
        p.observe_node(Some(power_of(0.9, &m, &truth)), 0.9, true, &m);
        p.end_tick();
        assert!(p.list().is_suspect(UrlId(7)));
    }

    #[test]
    fn hysteresis_holds_borderline_urls() {
        let c = ProfilerConfig {
            min_samples: 1,
            ..cfg()
        };
        let mut p = PowerProfiler::new(c.clone());
        let m = [(UrlId(1), 4)];
        // Estimate inside the band (threshold 0.70 ± 0.05): never
        // classified, never flaps.
        let truth = [(UrlId(1), 0.72)];
        for _ in 0..10 {
            p.observe_node(Some(power_of(0.8, &m, &truth)), 0.8, true, &m);
            p.end_tick();
        }
        assert_eq!(p.list().classified(), 0);
        assert_eq!(p.report().reclassifications, 0);
    }

    #[test]
    fn stale_urls_are_demoted_and_capacity_reclaimed() {
        let c = ProfilerConfig {
            stale_after_slots: 3,
            ..cfg()
        };
        let truth = [(UrlId(9), 0.95)];
        let mut p = PowerProfiler::new(c.clone());
        let m = [(UrlId(9), 3)];
        for _ in 0..5 {
            p.observe_node(Some(power_of(0.8, &m, &truth)), 0.8, true, &m);
            p.end_tick();
        }
        assert!(p.list().is_suspect(UrlId(9)));
        // URL disappears (attacker rotated away): demoted after the
        // staleness window.
        for _ in 0..4 {
            p.end_tick();
        }
        assert!(!p.list().is_suspect(UrlId(9)));
        assert_eq!(p.tracked(), 0);
        assert_eq!(p.report().stale_demotions, 1);
    }

    #[test]
    fn capacity_evicts_the_stalest_url() {
        let c = ProfilerConfig {
            max_urls: 2,
            min_samples: 1,
            ..cfg()
        };
        let truth = [(UrlId(1), 0.9), (UrlId(2), 0.9), (UrlId(3), 0.9)];
        let mut p = PowerProfiler::new(c.clone());
        let m1 = [(UrlId(1), 2)];
        p.observe_node(Some(power_of(0.8, &m1, &truth)), 0.8, true, &m1);
        p.end_tick();
        let m2 = [(UrlId(2), 2)];
        p.observe_node(Some(power_of(0.8, &m2, &truth)), 0.8, true, &m2);
        p.end_tick();
        assert_eq!(p.tracked(), 2);
        // A third URL arrives: URL 1 (stalest) is evicted.
        let m3 = [(UrlId(3), 2)];
        p.observe_node(Some(power_of(0.8, &m3, &truth)), 0.8, true, &m3);
        p.end_tick();
        assert_eq!(p.tracked(), 2);
        assert!(p.estimate(UrlId(1)).is_none());
        assert!(p.estimate(UrlId(3)).is_some());
        assert_eq!(p.report().evictions, 1);
    }

    #[test]
    fn cusum_detects_an_intensity_shift_and_relearns() {
        let c = ProfilerConfig {
            forgetting: 0.995,
            ..cfg()
        };
        let mut p = PowerProfiler::new(c.clone());
        let m = [(UrlId(4), 4)];
        let hot = [(UrlId(4), 0.95)];
        let cold = [(UrlId(4), 0.20)];
        for _ in 0..20 {
            p.observe_node(Some(power_of(0.8, &m, &hot)), 0.8, true, &m);
            p.end_tick();
        }
        assert!(p.list().is_suspect(UrlId(4)));
        // The service behind the URL changes character: residuals pile up
        // on one side until CUSUM trips, the entry re-learns, and the
        // classification follows the new truth.
        for _ in 0..60 {
            p.observe_node(Some(power_of(0.8, &m, &cold)), 0.8, true, &m);
            p.end_tick();
        }
        assert!(p.report().drift_events >= 1, "{:?}", p.report());
        assert!(!p.list().is_suspect(UrlId(4)));
        assert!((p.estimate(UrlId(4)).unwrap() - 0.20).abs() < 0.05);
    }

    #[test]
    fn replay_is_bit_identical() {
        let c = cfg();
        let truth = [(UrlId(0), 0.98), (UrlId(2), 0.78), (UrlId(3), 0.35)];
        let run = || {
            let mut p = PowerProfiler::new(c.clone());
            for round in 0..12u32 {
                let m1 = [(UrlId(0), 1 + round % 3), (UrlId(3), 2)];
                let m2 = [(UrlId(2), 2), (UrlId(3), 1 + round % 2)];
                p.observe_node(Some(power_of(0.7, &m1, &truth)), 0.7, true, &m1);
                p.observe_node(Some(power_of(0.6, &m2, &truth)), 0.6, true, &m2);
                p.end_tick();
            }
            (
                p.report(),
                p.estimate(UrlId(0)),
                p.estimate(UrlId(2)),
                p.estimate(UrlId(3)),
                p.list().suspects(),
            )
        };
        assert_eq!(run(), run());
    }
}

/// The live-block profiler against a reference that runs the dense
/// EW-RLS update, over random streams that evict, go stale, drift, drop
/// readings and idle nodes.
#[cfg(test)]
mod differential {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    /// One drawn stream: its generator seed and the knobs it runs under.
    #[derive(Debug, Clone, Copy)]
    struct Stream {
        seed: u64,
        max_urls: usize,
        /// URLs in play; more than `max_urls`, so trackers fill and evict.
        universe: u16,
        stale_after: u64,
        /// Ticks one active URL subset lasts: 1, or 1 plus one or two
        /// staleness windows, so URLs left out of a subset go stale.
        phase: u64,
        forgetting: f64,
        /// Near the prior variance of 25, so capping is frequent.
        variance_cap: f64,
        ticks: u64,
    }

    fn unit(rng: &mut TestRng) -> f64 {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(rng: &mut TestRng, n: u64) -> u64 {
        rng.next_u64() % n
    }

    type Bits = (
        Vec<Option<u64>>,
        Vec<Option<(u64, u64, u64)>>,
        (u64, u64, u64),
        ProfilerReport,
    );

    /// Everything the estimator feeds, as bits: every URL's estimate and
    /// confidence, the residual summary, and the report.
    fn bits(p: &PowerProfiler, universe: u16) -> Bits {
        let urls = (0..universe).map(UrlId);
        (
            urls.clone()
                .map(|u| p.estimate(u).map(f64::to_bits))
                .collect(),
            urls.map(|u| {
                p.confidence(u)
                    .map(|(m, s, n)| (m.to_bits(), s.to_bits(), n))
            })
            .collect(),
            (
                p.residuals.mean().to_bits(),
                p.residuals.std_dev().to_bits(),
                p.residuals.count(),
            ),
            p.report(),
        )
    }

    /// Drive a profiler and its dense reference over `s`, failing on the
    /// first tick they disagree; returns the profiler's report.
    fn drive(s: &Stream) -> Result<ProfilerReport, TestCaseError> {
        let cfg = ProfilerConfig {
            max_urls: s.max_urls,
            stale_after_slots: s.stale_after,
            forgetting: s.forgetting,
            variance_cap: s.variance_cap,
            min_samples: 1,
            cusum_warmup: 2,
            cusum_threshold: 3.0,
            ..ProfilerConfig::default()
        };
        let mut live = PowerProfiler::new(cfg.clone());
        let mut dense = PowerProfiler::new(cfg.clone());
        dense.rls.dense = true;
        let mut rng = TestRng::from_seed(s.seed);
        let mut truth: Vec<f64> = (0..s.universe).map(|_| unit(&mut rng)).collect();
        let mut active: Vec<u16> = Vec::new();
        let mut mix = Vec::new();
        for tick in 0..s.ticks {
            if tick % s.phase == 0 {
                active = (0..s.universe).filter(|_| unit(&mut rng) < 0.4).collect();
            }
            if unit(&mut rng) < 0.1 {
                // An intensity jump, for CUSUM to trip on.
                let i = &mut truth[below(&mut rng, u64::from(s.universe)) as usize];
                *i = 1.0 - *i;
            }
            for _ in 0..below(&mut rng, 5) {
                mix.clear();
                for &u in &active {
                    let count = below(&mut rng, 6) as u32;
                    if count > 2 {
                        mix.push((UrlId(u), count - 2));
                    }
                }
                // An empty mix is an idle node.
                let total: u32 = mix.iter().map(|&(_, c)| c).sum();
                let mean_i = mix
                    .iter()
                    .map(|&(u, c)| truth[usize::from(u.0)] * f64::from(c) / f64::from(total.max(1)))
                    .sum::<f64>();
                let util = if below(&mut rng, 20) == 0 {
                    0.0
                } else {
                    0.1 + 0.9 * unit(&mut rng)
                };
                let power = plant_power(util, mean_i, 0.9) + unit(&mut rng) - 0.5;
                let power_w = match below(&mut rng, 10) {
                    0 => None,
                    1 => Some(f64::NAN),
                    _ => Some(power),
                };
                let at_nominal = below(&mut rng, 8) != 0;
                live.observe_node(power_w, util, at_nominal, &mix);
                dense.observe_node(power_w, util, at_nominal, &mix);
            }
            prop_assert_eq!(live.end_tick(), dense.end_tick(), "tick {}", tick);
            prop_assert_eq!(
                bits(&live, s.universe),
                bits(&dense, s.universe),
                "tick {}",
                tick
            );
            let held: Vec<usize> = (0..s.max_urls)
                .filter(|&i| live.slots[i].is_some())
                .collect();
            prop_assert_eq!(live.rls.live(), &held[..], "live set at tick {}", tick);
        }
        Ok(live.report())
    }

    fn stream(seed: u64, max_urls: usize, extra: u16, stale_after: u64, phase: u64) -> Stream {
        Stream {
            seed,
            max_urls,
            universe: max_urls as u16 + extra,
            stale_after,
            phase: 1 + phase * stale_after,
            forgetting: 0.85 + 0.14 * (seed % 8) as f64 / 8.0,
            variance_cap: 25.5 + (seed >> 3) as f64 % 5.0,
            ticks: 150,
        }
    }

    #[test]
    fn streams_evict_go_stale_drift_and_skip() {
        let mut total = ProfilerReport::default();
        for seed in 0..8 {
            let r = drive(&stream(seed, 4, 6, 3, 2)).expect("profilers agree");
            total.evictions += r.evictions;
            total.stale_demotions += r.stale_demotions;
            total.drift_events += r.drift_events;
            total.skipped += r.skipped;
        }
        assert!(total.evictions > 0, "{total:?}");
        assert!(total.stale_demotions > 0, "{total:?}");
        assert!(total.drift_events > 0, "{total:?}");
        assert!(total.skipped > 0, "{total:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64 })]
        #[test]
        fn prop_live_block_profiler_matches_the_dense_reference(
            seed in 0u64..u64::MAX,
            max_urls in 1usize..9,
            extra in 1u16..12,
            stale_after in 1u64..8,
            phase in 0u64..3,
        ) {
            drive(&stream(seed, max_urls, extra, stale_after, phase))?;
        }
    }
}
