//! The request-control model of Section 5.3 — Equation (1):
//!
//! ```text
//!     Σᵢ qᵢ · Pᵢ(f) ≤ B₀
//! ```
//!
//! The incoming flow is divided into `n` power-usage levels (classes);
//! `qᵢ` requests of class `i` each draw `Pᵢ(f)` watts at throttle level
//! `f`. The scheduler picks a throttle level per class so aggregate power
//! fits the budget `B₀` while losing as little performance as possible.
//!
//! We solve with marginal-utility greedy: starting from full speed,
//! repeatedly take the single class-step-down with the best
//! watts-saved-per-slowdown-incurred until the budget holds. For the
//! monotone, diminishing-returns power curves produced by DVFS this is
//! the classic near-optimal heuristic, and it is exact when classes have
//! proportional curves.
//!
//! No scheme, figure or benchmark runs this solver: DPM (Algorithm 1,
//! [`crate::dpm`]) decides per node. It is compiled for tests only, as
//! the oracle `dpm_agrees_with_request_control_on_one_node` holds DPM's
//! node-level search to on a one-class, one-node problem.


/// One power-usage class of the incoming flow.
#[derive(Debug, Clone)]
pub struct RequestClass {
    /// Number of concurrent requests in this class (`qᵢ`).
    pub count: f64,
    /// Per-request power at each throttle level, watts — `Pᵢ(f)`,
    /// indexed slowest level first, **strictly positive length**, and
    /// non-decreasing (more frequency, more power).
    pub power_per_level_w: Vec<f64>,
    /// Relative per-request slowdown at each level (1.0 = full speed,
    /// larger = slower), same length, non-increasing in level index.
    pub slowdown_per_level: Vec<f64>,
}

impl RequestClass {
    fn validate(&self) {
        assert!(self.count >= 0.0);
        assert!(!self.power_per_level_w.is_empty());
        assert_eq!(self.power_per_level_w.len(), self.slowdown_per_level.len());
        for w in self.power_per_level_w.windows(2) {
            assert!(w[0] <= w[1] + 1e-12, "power must rise with level");
        }
        for s in self.slowdown_per_level.windows(2) {
            assert!(s[0] >= s[1] - 1e-12, "slowdown must fall with level");
        }
    }

    fn top(&self) -> usize {
        self.power_per_level_w.len() - 1
    }
}

/// The solved assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct ThrottleAssignment {
    /// Chosen level per class (index into each class's level arrays).
    pub levels: Vec<usize>,
    /// Aggregate power at the assignment, watts.
    pub total_power_w: f64,
    /// Count-weighted total slowdown (cost being minimized).
    pub total_slowdown: f64,
    /// True when even the all-floor assignment exceeds the budget.
    pub infeasible: bool,
}

/// Solve Eq (1) for the given classes and budget.
pub fn solve(budget_w: f64, classes: &[RequestClass]) -> ThrottleAssignment {
    assert!(budget_w >= 0.0);
    for c in classes {
        c.validate();
    }
    let mut levels: Vec<usize> = classes.iter().map(|c| c.top()).collect();
    let power_at = |levels: &[usize]| -> f64 {
        classes
            .iter()
            .zip(levels)
            .map(|(c, &l)| c.count * c.power_per_level_w[l])
            .sum()
    };
    let mut total = power_at(&levels);

    while total > budget_w + 1e-9 {
        // Best single step-down by Δpower / Δslowdown.
        let mut best: Option<(usize, f64, f64)> = None; // (class, dpower, dslow)
        for (i, c) in classes.iter().enumerate() {
            if levels[i] == 0 || c.count == 0.0 {
                continue;
            }
            let l = levels[i];
            let dpower = c.count * (c.power_per_level_w[l] - c.power_per_level_w[l - 1]);
            let dslow = c.count * (c.slowdown_per_level[l - 1] - c.slowdown_per_level[l]);
            if dpower <= 0.0 {
                continue; // no savings from this step; skip
            }
            let ratio = dpower / dslow.max(1e-12);
            let better = match best {
                None => true,
                Some((_, bp, bs)) => ratio > bp / bs.max(1e-12),
            };
            if better {
                best = Some((i, dpower, dslow));
            }
        }
        match best {
            Some((i, dpower, _)) => {
                levels[i] -= 1;
                total -= dpower;
            }
            None => break, // every class floored (or savings exhausted)
        }
    }

    let total_slowdown = classes
        .iter()
        .zip(&levels)
        .map(|(c, &l)| c.count * c.slowdown_per_level[l])
        .sum();
    ThrottleAssignment {
        infeasible: total > budget_w + 1e-9,
        total_power_w: total,
        total_slowdown,
        levels,
    }
}

/// Build the level arrays for a class from the DVFS ladder and the
/// class's power character — the glue between Eq (1) and the P-state
/// table.
pub fn class_from_profile(
    count: f64,
    table: &powercap::PStateTable,
    headroom_w: f64,
    intensity: f64,
    gamma: f64,
    beta: f64,
) -> RequestClass {
    let mut power = Vec::with_capacity(table.len());
    let mut slow = Vec::with_capacity(table.len());
    for p in table.states() {
        let dvfs = gamma * table.rel_dyn_power(p) + (1.0 - gamma);
        power.push(intensity * dvfs * headroom_w);
        let rate = (1.0 - beta) + beta * table.rel_freq(p);
        slow.push(1.0 / rate);
    }
    RequestClass {
        count,
        power_per_level_w: power,
        slowdown_per_level: slow,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powercap::PStateTable;
    use proptest::prelude::*;

    fn cls(count: f64, intensity: f64, gamma: f64, beta: f64) -> RequestClass {
        class_from_profile(
            count,
            PStateTable::paper_default(),
            60.0,
            intensity,
            gamma,
            beta,
        )
    }

    #[test]
    fn generous_budget_keeps_full_speed() {
        let classes = vec![cls(2.0, 0.9, 0.9, 0.9), cls(3.0, 0.4, 0.5, 0.3)];
        let a = solve(1000.0, &classes);
        assert!(!a.infeasible);
        assert_eq!(a.levels, vec![12, 12]);
        assert!((a.total_slowdown - 5.0).abs() < 1e-9);
    }

    #[test]
    fn tight_budget_throttles_cheapest_first() {
        // Class 0: high γ, low β — throttling saves lots of power at
        // little performance cost. Class 1: low γ, high β — saves little
        // and hurts a lot. The greedy must spend class 0 first.
        let classes = vec![cls(2.0, 0.95, 0.9, 0.3), cls(2.0, 0.95, 0.2, 0.95)];
        let full = solve(1e9, &classes).total_power_w;
        let a = solve(full * 0.85, &classes);
        assert!(!a.infeasible);
        assert!(a.total_power_w <= full * 0.85 + 1e-9);
        // The CPU-bound class absorbed the throttling.
        assert!(
            a.levels[0] < a.levels[1],
            "levels={:?} should throttle class 0 deeper",
            a.levels
        );
    }

    #[test]
    fn infeasible_flagged_at_floor() {
        let classes = vec![cls(10.0, 1.0, 0.5, 0.9)];
        let a = solve(1.0, &classes);
        assert!(a.infeasible);
        assert_eq!(a.levels, vec![0]);
        assert!(a.total_power_w > 1.0);
    }

    #[test]
    fn empty_class_ignored() {
        let classes = vec![cls(0.0, 1.0, 0.9, 0.9), cls(1.0, 0.5, 0.5, 0.5)];
        let a = solve(10.0, &classes);
        // Zero-count class never selected for stepping; solution honors
        // the budget through the non-empty class.
        assert!(a.total_power_w <= 10.0 + 1e-9 || a.infeasible);
    }

    #[test]
    fn budget_zero_floors_everything_with_positive_power() {
        let classes = vec![cls(1.0, 0.9, 0.9, 0.9), cls(1.0, 0.8, 0.8, 0.8)];
        let a = solve(0.0, &classes);
        assert!(a.infeasible);
        assert_eq!(a.levels, vec![0, 0]);
    }

    #[test]
    fn class_from_profile_shapes() {
        let c = cls(1.0, 0.9, 0.9, 0.9);
        assert_eq!(c.power_per_level_w.len(), 13);
        // Top level: intensity × headroom.
        assert!((c.power_per_level_w[12] - 54.0).abs() < 1e-9);
        assert!((c.slowdown_per_level[12] - 1.0).abs() < 1e-9);
        // Floor slowdown for β=0.9 at rel_f 0.5: 1/(0.1+0.45) ≈ 1.818.
        assert!((c.slowdown_per_level[0] - 1.0 / 0.55).abs() < 1e-9);
    }

    proptest! {
        /// The solver always returns a feasible assignment or correctly
        /// reports the floor as infeasible, and never *increases* any
        /// class above full speed.
        #[test]
        fn prop_solution_sound(
            budget in 0.0f64..500.0,
            counts in proptest::collection::vec(0.0f64..10.0, 1..5),
        ) {
            let classes: Vec<RequestClass> = counts
                .iter()
                .enumerate()
                .map(|(i, &n)| cls(n, 0.5 + 0.1 * i as f64, 0.3 + 0.15 * i as f64, 0.2 + 0.15 * i as f64))
                .collect();
            let a = solve(budget, &classes);
            prop_assert_eq!(a.levels.len(), classes.len());
            for (l, c) in a.levels.iter().zip(&classes) {
                prop_assert!(*l <= c.top());
            }
            if !a.infeasible {
                prop_assert!(a.total_power_w <= budget + 1e-6);
            } else {
                // Infeasible means every non-empty class reports floor or
                // the greedy exhausted all savings.
                prop_assert!(a.total_power_w > budget);
            }
        }

        /// Tightening the budget never speeds anything up.
        #[test]
        fn prop_monotone_in_budget(b1 in 50.0f64..400.0, delta in 1.0f64..100.0) {
            let classes = vec![cls(3.0, 0.9, 0.8, 0.9), cls(2.0, 0.7, 0.4, 0.4)];
            let loose = solve(b1 + delta, &classes);
            let tight = solve(b1, &classes);
            prop_assert!(tight.total_slowdown >= loose.total_slowdown - 1e-9);
        }
    }
}
