//! Sliding-window power monitor and budget-violation detector.
//!
//! The paper's RPM keeps "a feedback link between server power monitor
//! and server health checker" (Section 5.1). The monitor ingests one
//! aggregate power sample per control slot and reports whether the
//! budget is currently violated (with a configurable number of
//! consecutive over-budget samples required, to filter single-sample
//! noise from true emergencies).

use crate::budget::PowerBudget;
use crate::error::ConfigError;
use dcmetrics::OnlineSummary;
use simcore::SimTime;
use std::collections::VecDeque;

/// Monitor verdict for the current slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PowerCondition {
    /// Comfortably under budget (below the guard band).
    Nominal,
    /// Within the guard band under the budget — no action, but close.
    NearBudget,
    /// Over budget but not yet for enough consecutive samples.
    Transient,
    /// A sustained violation requiring intervention.
    Emergency,
}

/// Sliding-window power monitor.
#[derive(Debug, Clone)]
pub struct PowerMonitor {
    budget: PowerBudget,
    /// Samples as (time, watts), newest at the back.
    window: VecDeque<(SimTime, f64)>,
    window_len: usize,
    /// Fraction of the budget treated as the guard band (e.g. 0.05 means
    /// "NearBudget" starts at 95 % of supply).
    guard_fraction: f64,
    /// Consecutive over-budget samples needed to declare an emergency.
    emergency_after: usize,
    consecutive_over: usize,
    /// Consecutive under-budget samples needed to release an emergency
    /// latch (1 = no latch, the pre-hysteresis behaviour).
    release_after: usize,
    consecutive_under: usize,
    /// True between an Emergency verdict and its hysteretic release.
    latched: bool,
    /// Lifetime stats over all samples.
    lifetime: OnlineSummary,
    violations: u64,
}

impl PowerMonitor {
    /// New monitor for `budget`, keeping `window_len` samples, declaring
    /// an emergency after `emergency_after` consecutive violations.
    pub fn new(
        budget: PowerBudget,
        window_len: usize,
        emergency_after: usize,
    ) -> Result<Self, ConfigError> {
        if window_len < 1 {
            return Err(ConfigError::ZeroCount { what: "window_len" });
        }
        if emergency_after < 1 {
            return Err(ConfigError::ZeroCount {
                what: "emergency_after",
            });
        }
        Ok(PowerMonitor {
            budget,
            window: VecDeque::with_capacity(window_len),
            window_len,
            guard_fraction: 0.05,
            emergency_after,
            consecutive_over: 0,
            release_after: 1,
            consecutive_under: 0,
            latched: false,
            lifetime: OnlineSummary::new(),
            violations: 0,
        })
    }

    /// Require `release_after` consecutive under-budget samples before an
    /// Emergency verdict releases; until then under-budget samples read
    /// `NearBudget`, never `Nominal`. The default of 1 releases on the
    /// first under-budget sample (no hysteresis). This is the
    /// anti-flapping guard for controllers whose own intervention pulls
    /// the next sample just under the budget.
    #[cfg(test)]
    pub(crate) fn with_release_after(mut self, release_after: usize) -> Result<Self, ConfigError> {
        if release_after < 1 {
            return Err(ConfigError::ZeroCount {
                what: "release_after",
            });
        }
        self.release_after = release_after;
        Ok(self)
    }

    /// The active budget.
    pub fn budget(&self) -> &PowerBudget {
        &self.budget
    }

    /// Ingest one aggregate sample and classify the condition.
    pub fn observe(&mut self, t: SimTime, watts: f64) -> PowerCondition {
        assert!(watts.is_finite() && watts >= 0.0);
        if self.window.len() == self.window_len {
            self.window.pop_front();
        }
        self.window.push_back((t, watts));
        self.lifetime.record(watts);

        if self.budget.violated_by(watts) {
            self.consecutive_over += 1;
            self.consecutive_under = 0;
            self.violations += 1;
            if self.consecutive_over >= self.emergency_after {
                self.latched = true;
                PowerCondition::Emergency
            } else {
                PowerCondition::Transient
            }
        } else {
            self.consecutive_over = 0;
            let near = watts >= self.budget.supply_w * (1.0 - self.guard_fraction);
            if self.latched {
                self.consecutive_under += 1;
                if self.consecutive_under >= self.release_after {
                    self.latched = false;
                    self.consecutive_under = 0;
                } else {
                    // Held by the release latch: report NearBudget so
                    // controllers keep their caps instead of flapping.
                    return PowerCondition::NearBudget;
                }
            }
            if near {
                PowerCondition::NearBudget
            } else {
                PowerCondition::Nominal
            }
        }
    }

    /// True while an Emergency verdict awaits its hysteretic release.
    #[cfg(test)]
    pub(crate) fn is_latched(&self) -> bool {
        self.latched
    }

    /// Most recent sample.
    #[cfg(test)]
    pub(crate) fn last(&self) -> Option<(SimTime, f64)> {
        self.window.back().copied()
    }

    /// Deficit of the latest sample vs the budget (0 when under).
    #[cfg(test)]
    pub(crate) fn deficit_w(&self) -> f64 {
        self.last()
            .map(|(_, w)| (w - self.budget.supply_w).max(0.0))
            .unwrap_or(0.0)
    }

    /// Lifetime count of over-budget samples.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Lifetime sample statistics.
    pub fn lifetime(&self) -> &OnlineSummary {
        &self.lifetime
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::BudgetLevel;
    use proptest::prelude::*;

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    fn mon() -> PowerMonitor {
        // 400 W nameplate at Medium-PB → 340 W budget, window 5, 3 strikes.
        PowerMonitor::new(
            PowerBudget::for_cluster(400.0, BudgetLevel::Medium),
            5,
            3,
        )
        .unwrap()
    }

    #[test]
    fn zero_parameters_rejected() {
        let b = PowerBudget::for_cluster(400.0, BudgetLevel::Medium);
        assert!(matches!(
            PowerMonitor::new(b, 0, 1),
            Err(ConfigError::ZeroCount { what: "window_len" })
        ));
        assert!(matches!(
            PowerMonitor::new(b, 5, 0),
            Err(ConfigError::ZeroCount { what: "emergency_after" })
        ));
        assert!(matches!(
            PowerMonitor::new(b, 5, 1).unwrap().with_release_after(0),
            Err(ConfigError::ZeroCount { what: "release_after" })
        ));
    }

    #[test]
    fn nominal_under_guard() {
        let mut m = mon();
        assert_eq!(m.observe(s(0), 200.0), PowerCondition::Nominal);
        assert_eq!(m.deficit_w(), 0.0);
    }

    #[test]
    fn near_budget_in_guard_band() {
        let mut m = mon();
        // Guard band: [323, 340].
        assert_eq!(m.observe(s(0), 330.0), PowerCondition::NearBudget);
        assert_eq!(m.observe(s(1), 322.0), PowerCondition::Nominal);
    }

    #[test]
    fn emergency_needs_consecutive_strikes() {
        let mut m = mon();
        assert_eq!(m.observe(s(0), 350.0), PowerCondition::Transient);
        assert_eq!(m.observe(s(1), 350.0), PowerCondition::Transient);
        assert_eq!(m.observe(s(2), 350.0), PowerCondition::Emergency);
        assert_eq!(m.violations(), 3);
        assert!((m.deficit_w() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn dip_resets_strikes() {
        let mut m = mon();
        m.observe(s(0), 350.0);
        m.observe(s(1), 350.0);
        assert_eq!(m.observe(s(2), 300.0), PowerCondition::Nominal);
        assert_eq!(m.observe(s(3), 350.0), PowerCondition::Transient);
    }

    #[test]
    fn lifetime_summary_accumulates() {
        let mut m = mon();
        for i in 0..10 {
            m.observe(s(i), 100.0 + i as f64);
        }
        assert_eq!(m.lifetime().count(), 10);
        assert!((m.lifetime().mean() - 104.5).abs() < 1e-9);
    }

    #[test]
    fn default_release_matches_pre_latch_behaviour() {
        // release_after = 1: the first under-budget sample after an
        // Emergency reads exactly as it did before the latch existed.
        let mut m = PowerMonitor::new(
            PowerBudget::for_cluster(400.0, BudgetLevel::Medium),
            5,
            1,
        )
        .unwrap();
        assert_eq!(m.observe(s(0), 350.0), PowerCondition::Emergency);
        assert_eq!(m.observe(s(1), 200.0), PowerCondition::Nominal);
        assert!(!m.is_latched());
    }

    #[test]
    fn release_hysteresis_holds_near_budget() {
        let mut m = PowerMonitor::new(
            PowerBudget::for_cluster(400.0, BudgetLevel::Medium),
            5,
            1,
        )
        .unwrap()
        .with_release_after(3)
        .unwrap();
        assert_eq!(m.observe(s(0), 350.0), PowerCondition::Emergency);
        assert!(m.is_latched());
        // Two under-budget samples: held at NearBudget, even far under.
        assert_eq!(m.observe(s(1), 200.0), PowerCondition::NearBudget);
        assert_eq!(m.observe(s(2), 200.0), PowerCondition::NearBudget);
        // Third releases and classifies normally.
        assert_eq!(m.observe(s(3), 200.0), PowerCondition::Nominal);
        assert!(!m.is_latched());
        // An over-budget sample mid-release restarts the count.
        m.observe(s(4), 350.0); // Emergency again (emergency_after = 1)
        assert_eq!(m.observe(s(5), 200.0), PowerCondition::NearBudget);
        assert_eq!(m.observe(s(6), 350.0), PowerCondition::Emergency);
        assert_eq!(m.observe(s(7), 200.0), PowerCondition::NearBudget);
    }

    proptest! {
        /// Oscillation around the budget can never yield an Emergency
        /// without `emergency_after` consecutive over-budget samples
        /// immediately preceding it — the anti-flapping contract.
        #[test]
        fn prop_emergency_needs_consecutive_overs(
            samples in proptest::collection::vec(300.0f64..380.0, 1..80),
            k in 1usize..5,
        ) {
            // Budget: 340 W. Samples straddle it.
            let mut m = PowerMonitor::new(
                PowerBudget::for_cluster(400.0, BudgetLevel::Medium),
                5,
                k,
            )
            .unwrap();
            let mut over_run = 0usize;
            for (i, &w) in samples.iter().enumerate() {
                let c = m.observe(s(i as u64), w);
                if w > 340.0 + 1e-9 {
                    over_run += 1;
                } else {
                    over_run = 0;
                }
                prop_assert_eq!(
                    c == PowerCondition::Emergency,
                    over_run >= k,
                    "sample {} ({} W): verdict {:?}, over_run {}",
                    i, w, c, over_run
                );
            }
        }

        /// With a release latch of `r`, a `Nominal` verdict never appears
        /// within `r` samples of an Emergency: the guard band cannot
        /// produce alternating Emergency/Nominal verdicts.
        #[test]
        fn prop_latch_blocks_emergency_nominal_flapping(
            samples in proptest::collection::vec(300.0f64..380.0, 1..80),
            r in 2usize..6,
        ) {
            let mut m = PowerMonitor::new(
                PowerBudget::for_cluster(400.0, BudgetLevel::Medium),
                5,
                1,
            )
            .unwrap()
            .with_release_after(r)
            .unwrap();
            let mut since_emergency = usize::MAX;
            for (i, &w) in samples.iter().enumerate() {
                let c = m.observe(s(i as u64), w);
                if c == PowerCondition::Emergency {
                    since_emergency = 0;
                } else {
                    since_emergency = since_emergency.saturating_add(1);
                }
                if c == PowerCondition::Nominal {
                    prop_assert!(
                        since_emergency >= r,
                        "Nominal {} samples after Emergency (release_after {})",
                        since_emergency, r
                    );
                }
            }
        }
    }
}
