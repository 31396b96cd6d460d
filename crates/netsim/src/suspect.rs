//! The suspect list: URL → power intensity, built by offline profiling.
//!
//! Section 5.2: "Anti-DOPE establishes \[the\] suspect list by offline
//! profiling the relationship between power and service types for
//! heterogeneous requests." The list maps each URL to its measured
//! per-request power intensity; URLs whose intensity exceeds a threshold
//! are classified *suspect* and forwarded to the isolated pool.

use crate::error::ConfigError;
use crate::request::UrlId;
use simcore::FxHashMap;

/// URL classification produced by PDF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowClass {
    /// High-power service type → isolated pool.
    Suspect,
    /// Ordinary traffic → main pool.
    Innocent,
}

/// Offline-profiled URL → power-intensity map with a suspicion threshold.
#[derive(Debug, Clone)]
pub struct SuspectList {
    intensities: FxHashMap<UrlId, f64>,
    threshold: f64,
    /// Classification for URLs never profiled.
    default_class: FlowClass,
}

impl SuspectList {
    /// Empty list: everything classified `default_class` until profiled.
    /// Rejects thresholds outside `[0, 1]` (profiled intensities are
    /// normalized, so such a threshold could never bite).
    pub fn new(threshold: f64, default_class: FlowClass) -> Result<Self, ConfigError> {
        if !(0.0..=1.0).contains(&threshold) || !threshold.is_finite() {
            return Err(ConfigError::Threshold { value: threshold });
        }
        Ok(SuspectList {
            intensities: FxHashMap::default(),
            threshold,
            default_class,
        })
    }

    /// Record (or update) a profiled intensity for `url`. Rejects
    /// intensities outside the normalized `[0, 1]` range.
    pub fn set_profile(&mut self, url: UrlId, intensity: f64) -> Result<(), ConfigError> {
        if !(0.0..=1.0).contains(&intensity) || !intensity.is_finite() {
            return Err(ConfigError::Intensity { value: intensity });
        }
        self.intensities.insert(url, intensity);
        Ok(())
    }

    /// Profiled intensity of `url`, if known.
    #[cfg(test)]
    pub(crate) fn intensity(&self, url: UrlId) -> Option<f64> {
        self.intensities.get(&url).copied()
    }

    /// Classify a URL.
    pub(crate) fn classify(&self, url: UrlId) -> FlowClass {
        match self.intensities.get(&url) {
            Some(&i) if i > self.threshold => FlowClass::Suspect,
            Some(_) => FlowClass::Innocent,
            None => self.default_class,
        }
    }

    /// Convenience: is this URL suspect?
    pub fn is_suspect(&self, url: UrlId) -> bool {
        self.classify(url) == FlowClass::Suspect
    }

    /// Number of profiled URLs.
    pub fn profiled(&self) -> usize {
        self.intensities.len()
    }

    /// All suspect URLs, sorted by id for deterministic iteration.
    #[cfg(test)]
    pub(crate) fn suspects(&self) -> Vec<UrlId> {
        let mut v: Vec<UrlId> = self
            .intensities
            .iter()
            .filter(|(_, &i)| i > self.threshold)
            .map(|(&u, _)| u)
            .collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_by_threshold() {
        let mut sl = SuspectList::new(0.7, FlowClass::Innocent).unwrap();
        sl.set_profile(UrlId(0), 0.95).unwrap(); // Colla-Filt-like
        sl.set_profile(UrlId(1), 0.9).unwrap(); // K-means-like
        sl.set_profile(UrlId(2), 0.75).unwrap(); // Word-Count-like
        sl.set_profile(UrlId(3), 0.35).unwrap(); // Text-Cont-like
        assert!(sl.is_suspect(UrlId(0)));
        assert!(sl.is_suspect(UrlId(1)));
        assert!(sl.is_suspect(UrlId(2)));
        assert!(!sl.is_suspect(UrlId(3)));
        assert_eq!(sl.suspects(), vec![UrlId(0), UrlId(1), UrlId(2)]);
    }

    #[test]
    fn unknown_urls_take_default() {
        let innocent_default = SuspectList::new(0.5, FlowClass::Innocent).unwrap();
        assert_eq!(innocent_default.classify(UrlId(99)), FlowClass::Innocent);
        let paranoid = SuspectList::new(0.5, FlowClass::Suspect).unwrap();
        assert_eq!(paranoid.classify(UrlId(99)), FlowClass::Suspect);
    }

    #[test]
    fn exactly_at_threshold_is_innocent() {
        let mut sl = SuspectList::new(0.7, FlowClass::Innocent).unwrap();
        sl.set_profile(UrlId(0), 0.7).unwrap();
        assert!(!sl.is_suspect(UrlId(0)));
    }

    #[test]
    fn reprofiling_overwrites() {
        let mut sl = SuspectList::new(0.5, FlowClass::Innocent).unwrap();
        sl.set_profile(UrlId(0), 0.9).unwrap();
        assert!(sl.is_suspect(UrlId(0)));
        sl.set_profile(UrlId(0), 0.1).unwrap();
        assert!(!sl.is_suspect(UrlId(0)));
        assert_eq!(sl.profiled(), 1);
        assert_eq!(sl.intensity(UrlId(0)), Some(0.1));
    }

    #[test]
    fn out_of_range_parameters_are_typed_errors() {
        assert_eq!(
            SuspectList::new(1.5, FlowClass::Innocent).unwrap_err(),
            ConfigError::Threshold { value: 1.5 }
        );
        assert!(SuspectList::new(f64::NAN, FlowClass::Innocent).is_err());
        let mut sl = SuspectList::new(0.5, FlowClass::Innocent).unwrap();
        assert_eq!(
            sl.set_profile(UrlId(0), -0.1).unwrap_err(),
            ConfigError::Intensity { value: -0.1 }
        );
        // A rejected profile leaves the list untouched.
        assert_eq!(sl.profiled(), 0);
    }
}
