//! Power monitor and budget-violation detector.
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

/// Power monitor: classifies each slot's aggregate sample against the
/// budget and keeps lifetime statistics.
#[derive(Debug, Clone)]
pub struct PowerMonitor {
    budget: PowerBudget,
    /// Fraction of the budget treated as the guard band (e.g. 0.05 means
    /// "NearBudget" starts at 95 % of supply).
    guard_fraction: f64,
    /// Consecutive over-budget samples needed to declare an emergency.
    emergency_after: usize,
    consecutive_over: usize,
    /// Lifetime stats over all samples.
    lifetime: OnlineSummary,
    violations: u64,
}

impl PowerMonitor {
    /// New monitor for `budget`, declaring an emergency after
    /// `emergency_after` consecutive violations.
    pub fn new(budget: PowerBudget, emergency_after: usize) -> Result<Self, ConfigError> {
        if emergency_after < 1 {
            return Err(ConfigError::ZeroCount {
                what: "emergency_after",
            });
        }
        Ok(PowerMonitor {
            budget,
            guard_fraction: 0.05,
            emergency_after,
            consecutive_over: 0,
            lifetime: OnlineSummary::new(),
            violations: 0,
        })
    }

    /// The active budget.
    pub fn budget(&self) -> &PowerBudget {
        &self.budget
    }

    /// Ingest one aggregate sample and classify the condition.
    pub fn observe(&mut self, watts: f64) -> PowerCondition {
        assert!(watts.is_finite() && watts >= 0.0);
        self.lifetime.record(watts);

        if self.budget.violated_by(watts) {
            self.consecutive_over += 1;
            self.violations += 1;
            if self.consecutive_over >= self.emergency_after {
                PowerCondition::Emergency
            } else {
                PowerCondition::Transient
            }
        } else {
            self.consecutive_over = 0;
            if watts >= self.budget.supply_w * (1.0 - self.guard_fraction) {
                PowerCondition::NearBudget
            } else {
                PowerCondition::Nominal
            }
        }
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

    fn mon(emergency_after: usize) -> PowerMonitor {
        // 400 W nameplate at Medium-PB → 340 W budget.
        PowerMonitor::new(
            PowerBudget::for_cluster(400.0, BudgetLevel::Medium),
            emergency_after,
        )
        .unwrap()
    }

    #[test]
    fn zero_parameters_rejected() {
        let b = PowerBudget::for_cluster(400.0, BudgetLevel::Medium);
        assert!(matches!(
            PowerMonitor::new(b, 0),
            Err(ConfigError::ZeroCount { what: "emergency_after" })
        ));
    }

    #[test]
    fn nominal_under_guard() {
        let mut m = mon(3);
        assert_eq!(m.observe(200.0), PowerCondition::Nominal);
    }

    #[test]
    fn near_budget_in_guard_band() {
        let mut m = mon(3);
        // Guard band: [323, 340].
        assert_eq!(m.observe(330.0), PowerCondition::NearBudget);
        assert_eq!(m.observe(322.0), PowerCondition::Nominal);
    }

    #[test]
    fn emergency_needs_consecutive_strikes() {
        let mut m = mon(3);
        assert_eq!(m.observe(350.0), PowerCondition::Transient);
        assert_eq!(m.observe(350.0), PowerCondition::Transient);
        assert_eq!(m.observe(350.0), PowerCondition::Emergency);
        assert_eq!(m.violations(), 3);
    }

    #[test]
    fn dip_resets_strikes() {
        let mut m = mon(3);
        m.observe(350.0);
        m.observe(350.0);
        assert_eq!(m.observe(300.0), PowerCondition::Nominal);
        assert_eq!(m.observe(350.0), PowerCondition::Transient);
    }

    #[test]
    fn lifetime_summary_accumulates() {
        let mut m = mon(3);
        for i in 0..10 {
            m.observe(100.0 + i as f64);
        }
        assert_eq!(m.lifetime().count(), 10);
        assert!((m.lifetime().mean() - 104.5).abs() < 1e-9);
    }

    #[test]
    fn first_under_budget_sample_releases_an_emergency() {
        let mut m = mon(1);
        assert_eq!(m.observe(350.0), PowerCondition::Emergency);
        assert_eq!(m.observe(200.0), PowerCondition::Nominal);
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
            let mut m = mon(k);
            let mut over_run = 0usize;
            for (i, &w) in samples.iter().enumerate() {
                let c = m.observe(w);
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
    }
}
