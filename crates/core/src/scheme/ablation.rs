//! Ablation variants of Anti-DOPE: each half of the framework alone.
//!
//! * [`PdfOnlyScheme`] — Power-Driven Forwarding without RPM: suspect
//!   flows are isolated on the suspect pool, but nothing reacts to a
//!   budget violation. Shows how much of Anti-DOPE's benefit is pure
//!   traffic placement.
//! * [`RpmOnlyScheme`] — RPM/DPM without PDF: vanilla round-robin
//!   forwarding, with the differentiated (per-node marginal-greedy)
//!   throttling plan reacting to violations. Shows what differentiated
//!   throttling buys *without* isolation — since attack and legitimate
//!   requests share every node, DPM degenerates toward smart capping.

use super::anti_dope::AntiDopeScheme;
use super::{Action, ControlInput, PowerScheme};
use crate::config::ClusterConfig;
use netsim::nlb::ForwardingPolicy;

/// PDF forwarding with no power control at all.
pub(crate) struct PdfOnlyScheme;

impl PdfOnlyScheme {
    /// Build (stateless).
    pub(crate) fn new(config: &ClusterConfig) -> Self {
        config
            .validate()
            .expect("PdfOnly requires a valid cluster config");
        PdfOnlyScheme
    }
}

impl PowerScheme for PdfOnlyScheme {
    fn name(&self) -> &'static str {
        "PDF-only"
    }

    fn forwarding_policy(&self, config: &ClusterConfig) -> ForwardingPolicy {
        crate::pdf::pdf_policy(
            config.servers,
            config.suspect_pool_size,
            crate::pdf::DEFAULT_SUSPECT_THRESHOLD,
        )
        .expect("default threshold is valid")
    }

    fn control(&mut self, _input: &ControlInput, _actions: &mut Vec<Action>) {}
}

/// RPM/DPM control with vanilla round-robin forwarding.
pub(crate) struct RpmOnlyScheme {
    inner: AntiDopeScheme,
}

impl RpmOnlyScheme {
    /// Build over the full RPM controller.
    pub(crate) fn new(config: &ClusterConfig) -> Self {
        RpmOnlyScheme {
            inner: AntiDopeScheme::new(config),
        }
    }
}

impl PowerScheme for RpmOnlyScheme {
    fn name(&self) -> &'static str {
        "RPM-only"
    }

    // Default forwarding policy: RoundRobin (no PDF).

    fn control(&mut self, input: &ControlInput, actions: &mut Vec<Action>) {
        self.inner.control(input, actions);
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::input;
    use super::*;
    use powercap::budget::BudgetLevel;

    #[test]
    fn pdf_only_isolates_but_never_actuates() {
        let cfg = ClusterConfig::paper_rack(BudgetLevel::Low);
        let mut s = PdfOnlyScheme::new(&cfg);
        assert!(matches!(
            s.forwarding_policy(&cfg),
            ForwardingPolicy::UrlSplit { .. }
        ));
        let mut actions = Vec::new();
        s.control(&input(500.0, BudgetLevel::Low, [1.0; 4]), &mut actions);
        assert!(actions.is_empty());
    }

    #[test]
    fn rpm_only_throttles_without_isolating() {
        let cfg = ClusterConfig::paper_rack(BudgetLevel::Low);
        let mut s = RpmOnlyScheme::new(&cfg);
        assert!(matches!(
            s.forwarding_policy(&cfg),
            ForwardingPolicy::RoundRobin
        ));
        let mut actions = Vec::new();
        s.control(&input(390.0, BudgetLevel::Low, [1.0; 4]), &mut actions);
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, Action::SetPState { .. })),
            "{actions:?}"
        );
    }
}
