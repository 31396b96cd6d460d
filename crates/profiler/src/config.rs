//! Tuning knobs for the online profiler, with paper-calibrated defaults.

use std::fmt;

/// Configuration of the online power-attribution profiler: the
/// estimator and the classification hysteresis. The power law it
/// inverts is the plant's own, [`powercap::ServerPowerModel`], so it has
/// no knobs here.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilerConfig {
    /// EW-RLS forgetting factor λ ∈ (0, 1]; smaller forgets faster.
    pub forgetting: f64,
    /// Prior intensity assumed for a never-observed URL.
    pub prior_intensity: f64,
    /// Prior variance on a never-observed URL's intensity. A large value
    /// (≫ 1) makes the first few observations of a fresh URL dominate the
    /// prior, so newly-minted attack URLs are learned within a couple of
    /// monitor ticks.
    pub prior_variance: f64,
    /// Cap on any coefficient's variance (covariance limiting keeps the
    /// forgetting factor from blowing up unexcited directions).
    pub variance_cap: f64,
    /// Suspicion threshold on estimated intensity (matches the offline
    /// list's threshold so oracle and online labels are comparable).
    pub threshold: f64,
    /// Hysteresis half-band around the threshold: a URL is promoted only
    /// above `threshold + hysteresis` and demoted only below
    /// `threshold - hysteresis`, so borderline flows don't flap.
    pub hysteresis: f64,
    /// Minimum learning observations before a URL may be classified.
    pub min_samples: u32,
    /// Monitor ticks without an appearance after which a tracked URL is
    /// demoted and its capacity reclaimed (rotated-away attack URLs).
    pub stale_after_slots: u64,
    /// Maximum URLs tracked simultaneously (the RLS dimension). When
    /// full, the stalest entry is evicted for a newcomer.
    pub max_urls: usize,
    /// CUSUM slack per observation, in residual standard deviations.
    pub cusum_slack: f64,
    /// CUSUM decision threshold, in residual standard deviations.
    pub cusum_threshold: f64,
    /// Learning observations of a URL before its CUSUM arms (the initial
    /// RLS transient must not read as drift).
    pub cusum_warmup: u32,
    /// Record the suspect list into the report every tick it changes
    /// (`ProfilerReport::suspect_timeline`). Off by default: the timeline
    /// is a measurement artifact for convergence studies, not something a
    /// production control loop needs to carry.
    pub track_convergence: bool,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            forgetting: 0.98,
            prior_intensity: 0.5,
            prior_variance: 25.0,
            variance_cap: 50.0,
            threshold: 0.70,
            hysteresis: 0.05,
            min_samples: 3,
            stale_after_slots: 30,
            max_urls: 32,
            cusum_slack: 0.5,
            cusum_threshold: 8.0,
            cusum_warmup: 8,
            track_convergence: false,
        }
    }
}

impl ProfilerConfig {
    /// Validate every field, reporting the first violation.
    pub fn validate(&self) -> Result<(), ProfilerConfigError> {
        let positive: [(&'static str, f64); 3] = [
            ("prior_variance", self.prior_variance),
            ("variance_cap", self.variance_cap),
            ("cusum_threshold", self.cusum_threshold),
        ];
        for (field, value) in positive {
            if value <= 0.0 || !value.is_finite() {
                return Err(ProfilerConfigError::Value { field, value });
            }
        }
        if !(self.forgetting > 0.0 && self.forgetting <= 1.0) {
            return Err(ProfilerConfigError::Forgetting {
                value: self.forgetting,
            });
        }
        if !(0.0..=1.0).contains(&self.threshold) || !self.threshold.is_finite() {
            return Err(ProfilerConfigError::Threshold {
                value: self.threshold,
            });
        }
        if !(0.0..0.5).contains(&self.hysteresis) {
            return Err(ProfilerConfigError::Hysteresis {
                value: self.hysteresis,
            });
        }
        if !(0.0..=1.0).contains(&self.prior_intensity) {
            return Err(ProfilerConfigError::Value {
                field: "prior_intensity",
                value: self.prior_intensity,
            });
        }
        if self.cusum_slack < 0.0 || !self.cusum_slack.is_finite() {
            return Err(ProfilerConfigError::Value {
                field: "cusum_slack",
                value: self.cusum_slack,
            });
        }
        if self.max_urls < 1 {
            return Err(ProfilerConfigError::MaxUrls {
                value: self.max_urls,
            });
        }
        Ok(())
    }
}

/// Why a [`ProfilerConfig`] was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfilerConfigError {
    /// Suspicion threshold outside `[0, 1]`.
    Threshold {
        /// Offending value.
        value: f64,
    },
    /// Hysteresis half-band outside `[0, 0.5)`.
    Hysteresis {
        /// Offending value.
        value: f64,
    },
    /// Forgetting factor outside `(0, 1]`.
    Forgetting {
        /// Offending value.
        value: f64,
    },
    /// Tracked-URL capacity below 1.
    MaxUrls {
        /// Offending value.
        value: usize,
    },
    /// Any other field out of range.
    Value {
        /// Field name.
        field: &'static str,
        /// Offending value.
        value: f64,
    },
}

impl fmt::Display for ProfilerConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfilerConfigError::Threshold { value } => {
                write!(f, "profiler threshold {value} outside [0, 1]")
            }
            ProfilerConfigError::Hysteresis { value } => {
                write!(f, "profiler hysteresis {value} outside [0, 0.5)")
            }
            ProfilerConfigError::Forgetting { value } => {
                write!(f, "profiler forgetting factor {value} outside (0, 1]")
            }
            ProfilerConfigError::MaxUrls { value } => {
                write!(f, "profiler must track at least one URL (max_urls={value})")
            }
            ProfilerConfigError::Value { field, value } => {
                write!(f, "profiler {field}={value} out of range")
            }
        }
    }
}

impl std::error::Error for ProfilerConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert_eq!(ProfilerConfig::default().validate(), Ok(()));
    }

    #[test]
    fn bad_fields_are_rejected_with_typed_errors() {
        let c = ProfilerConfig {
            threshold: 1.5,
            ..ProfilerConfig::default()
        };
        assert_eq!(
            c.validate(),
            Err(ProfilerConfigError::Threshold { value: 1.5 })
        );
        let c = ProfilerConfig {
            forgetting: 0.0,
            ..ProfilerConfig::default()
        };
        assert!(matches!(
            c.validate(),
            Err(ProfilerConfigError::Forgetting { .. })
        ));
        let c = ProfilerConfig {
            hysteresis: 0.5,
            ..ProfilerConfig::default()
        };
        assert!(matches!(
            c.validate(),
            Err(ProfilerConfigError::Hysteresis { .. })
        ));
        let c = ProfilerConfig {
            max_urls: 0,
            ..ProfilerConfig::default()
        };
        assert!(matches!(
            c.validate(),
            Err(ProfilerConfigError::MaxUrls { .. })
        ));
        let c = ProfilerConfig {
            prior_variance: -1.0,
            ..ProfilerConfig::default()
        };
        assert!(matches!(c.validate(), Err(ProfilerConfigError::Value { .. })));
    }

    #[test]
    fn errors_render_the_offending_field() {
        let e = ProfilerConfigError::Value {
            field: "prior_variance",
            value: -3.0,
        };
        assert!(format!("{e}").contains("prior_variance"));
        let e = ProfilerConfigError::Threshold { value: 2.0 };
        assert!(format!("{e}").contains('2'));
    }
}
