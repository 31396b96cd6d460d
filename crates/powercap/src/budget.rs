//! Power budgets and the paper's provisioning levels.
//!
//! Section 3.3: "We configure the normal power budget (Normal-PB) as our
//! baseline (with 100 % supplied power). We configure high power budget
//! (High-PB) with 90 %, medium power budget (Medium-PB) with 85 %, and
//! low power budget with 80 % (Low-PB) of Normal-PB." These fractions are
//! the oversubscription axis of Figures 16, 17, and 19.


/// The four provisioning levels evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetLevel {
    /// 100 % of aggregate nameplate — no oversubscription.
    Normal,
    /// 90 % — mild oversubscription.
    High,
    /// 85 % — the paper's "medium" scenario.
    Medium,
    /// 80 % — aggressive oversubscription.
    Low,
}

impl BudgetLevel {
    /// All levels in the paper's presentation order.
    pub const ALL: [BudgetLevel; 4] = [
        BudgetLevel::Normal,
        BudgetLevel::High,
        BudgetLevel::Medium,
        BudgetLevel::Low,
    ];

    /// Supplied power as a fraction of aggregate nameplate.
    pub fn fraction(self) -> f64 {
        match self {
            BudgetLevel::Normal => 1.0,
            BudgetLevel::High => 0.90,
            BudgetLevel::Medium => 0.85,
            BudgetLevel::Low => 0.80,
        }
    }

    /// Paper-style display name.
    pub fn name(self) -> &'static str {
        match self {
            BudgetLevel::Normal => "Normal-PB",
            BudgetLevel::High => "High-PB",
            BudgetLevel::Medium => "Medium-PB",
            BudgetLevel::Low => "Low-PB",
        }
    }
}

impl std::fmt::Display for BudgetLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A concrete wattage budget for a cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBudget {
    /// Watts the utility feed can supply.
    pub supply_w: f64,
    /// The level this budget was derived from (for reporting).
    pub level: BudgetLevel,
}

impl PowerBudget {
    /// Budget for a cluster with the given aggregate nameplate at `level`.
    pub fn for_cluster(aggregate_nameplate_w: f64, level: BudgetLevel) -> Self {
        assert!(
            aggregate_nameplate_w > 0.0,
            "for_cluster invariant: aggregate nameplate must be positive, got {aggregate_nameplate_w}"
        );
        PowerBudget {
            supply_w: aggregate_nameplate_w * level.fraction(),
            level,
        }
    }

    /// True when `demand_w` violates the budget.
    pub(crate) fn violated_by(&self, demand_w: f64) -> bool {
        demand_w > self.supply_w + 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_match_paper() {
        assert_eq!(BudgetLevel::Normal.fraction(), 1.0);
        assert_eq!(BudgetLevel::High.fraction(), 0.90);
        assert_eq!(BudgetLevel::Medium.fraction(), 0.85);
        assert_eq!(BudgetLevel::Low.fraction(), 0.80);
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(BudgetLevel::Medium.name(), "Medium-PB");
        assert_eq!(format!("{}", BudgetLevel::Low), "Low-PB");
    }

    #[test]
    fn cluster_budget() {
        // Paper's mini rack: 4 × 100 W.
        let b = PowerBudget::for_cluster(400.0, BudgetLevel::Medium);
        assert!((b.supply_w - 340.0).abs() < 1e-9);
        assert!(b.violated_by(341.0));
        assert!(!b.violated_by(340.0));
    }

    #[test]
    fn all_levels_ordered_by_supply() {
        let fracs: Vec<f64> = BudgetLevel::ALL.iter().map(|l| l.fraction()).collect();
        for w in fracs.windows(2) {
            assert!(w[0] > w[1]);
        }
    }
}
