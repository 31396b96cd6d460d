//! The EC service kernels of Table 1, with calibrated demand and power
//! parameters.
//!
//! Calibration targets the paper's measured *orderings*, which is what
//! every figure depends on:
//!
//! | kernel     | character          | intensity | γ (power-DVFS) | β (perf-DVFS) |
//! |------------|--------------------|-----------|----------------|---------------|
//! | Colla-Filt | compute-intensive  | highest   | high           | high          |
//! | K-means    | memory-intensive   | high      | low            | low           |
//! | Word-Count | disk-read heavy    | medium    | medium         | medium        |
//! | Text-Cont  | text delivery      | low       | medium         | low           |
//!
//! Consequences reproduced downstream: Colla-Filt trips power capping at
//! the lowest request rate (highest intensity, Fig 6-a); K-means costs
//! the most *energy per request* (long service time × high intensity,
//! Fig 5-b) and forces the deepest V/F cuts (low γ, Fig 6-b); Text-Cont
//! and volume floods are power-cheap (Fig 5-a).

use netsim::request::UrlId;
use simcore::rng::SimRng;
use simcore::SimDuration;
use std::sync::OnceLock;

/// The four victim service kernels of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceKind {
    /// Collaborative filtering — recommender computation.
    CollaFilt,
    /// K-means classification — memory-intensive.
    KMeans,
    /// Word-Count — frequent disk reads of text files.
    WordCount,
    /// Text-Context — serves text content.
    TextCont,
}

impl ServiceKind {
    /// All kernels in Table 1 order.
    pub const ALL: [ServiceKind; 4] = [
        ServiceKind::CollaFilt,
        ServiceKind::KMeans,
        ServiceKind::WordCount,
        ServiceKind::TextCont,
    ];

    /// Table 1 display name.
    pub fn name(self) -> &'static str {
        match self {
            ServiceKind::CollaFilt => "Colla-Filt",
            ServiceKind::KMeans => "K-means",
            ServiceKind::WordCount => "Word-Count",
            ServiceKind::TextCont => "Text-Cont",
        }
    }

    /// The URL this kernel is served on in the EC application.
    pub fn url(self) -> UrlId {
        match self {
            ServiceKind::CollaFilt => UrlId(0),
            ServiceKind::KMeans => UrlId(1),
            ServiceKind::WordCount => UrlId(2),
            ServiceKind::TextCont => UrlId(3),
        }
    }

    /// Reverse lookup from URL.
    pub fn from_url(url: UrlId) -> Option<ServiceKind> {
        ServiceKind::ALL.into_iter().find(|k| k.url() == url)
    }

    /// Calibrated profile for this kernel.
    pub fn profile(self) -> ServiceProfile {
        match self {
            ServiceKind::CollaFilt => ServiceProfile {
                kind: self,
                mean_work_gcycles: 0.0840, // 35 ms on a 2.4 GHz core
                work_cv: 0.25,
                beta: 0.95,
                intensity: 0.98,
                gamma: 0.90,
            },
            ServiceKind::KMeans => ServiceProfile {
                kind: self,
                mean_work_gcycles: 0.1080, // 45 ms — longest service time
                work_cv: 0.30,
                beta: 0.40,
                intensity: 0.92,
                gamma: 0.35,
            },
            ServiceKind::WordCount => ServiceProfile {
                kind: self,
                mean_work_gcycles: 0.0600, // 25 ms
                work_cv: 0.40,
                beta: 0.55,
                intensity: 0.78,
                gamma: 0.60,
            },
            ServiceKind::TextCont => ServiceProfile {
                kind: self,
                mean_work_gcycles: 0.0192, // 8 ms
                work_cv: 0.35,
                beta: 0.30,
                intensity: 0.35,
                gamma: 0.55,
            },
        }
    }
}

impl std::fmt::Display for ServiceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Calibrated per-kernel demand and power character.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceProfile {
    /// Which kernel this profiles.
    pub kind: ServiceKind,
    /// Mean per-request compute demand at nominal frequency, G-cycles.
    pub mean_work_gcycles: f64,
    /// Coefficient of variation of the (log-normal) work distribution.
    pub work_cv: f64,
    /// CPU-boundedness: service-rate sensitivity to frequency, `[0, 1]`.
    pub beta: f64,
    /// Power intensity exerted while in service, `[0, 1]`.
    pub intensity: f64,
    /// DVFS sensitivity of the dynamic power, `[0, 1]`.
    pub gamma: f64,
}

impl ServiceProfile {
    /// Mean service time on one nominal-frequency core.
    pub fn mean_service_time(&self, core_ghz: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.mean_work_gcycles / core_ghz)
    }

    /// The log-normal `(mu, sigma)` of the per-request work: for mean
    /// m and cv c, sigma² = ln(1 + c²) and mu = ln(m) − sigma²/2.
    fn lognormal(&self) -> (f64, f64) {
        let sigma2 = (1.0 + self.work_cv * self.work_cv).ln();
        let mu = self.mean_work_gcycles.ln() - sigma2 / 2.0;
        (mu, sigma2.sqrt())
    }

    /// Sample a per-request work demand (log-normal around the mean).
    /// `self` must be its kind's calibrated profile: the `(mu, sigma)`
    /// pair comes from a per-kind table built once.
    pub(crate) fn sample_work(&self, rng: &mut SimRng) -> f64 {
        static LOGNORMAL: OnceLock<[(f64, f64); 4]> = OnceLock::new();
        debug_assert_eq!(*self, self.kind.profile(), "not a calibrated profile");
        let table = LOGNORMAL.get_or_init(|| ServiceKind::ALL.map(|k| k.profile().lognormal()));
        let (mu, sigma) = table[self.kind as usize];
        (mu + sigma * rng.standard_normal()).exp().max(1e-6)
    }

    /// Rough per-request dynamic energy at nominal frequency on the
    /// paper's 100 W / 40 W node: intensity × headroom × service time.
    /// Used for offline profiling and token-bucket cost estimates.
    pub fn energy_estimate_j(&self, core_ghz: f64, headroom_w: f64) -> f64 {
        self.intensity * headroom_w * self.mean_service_time(core_ghz).as_secs_f64()
    }
}

/// A probability mix over service kernels (what a user population asks
/// for).
#[derive(Debug, Clone)]
pub struct ServiceMix {
    entries: Vec<(ServiceKind, f64)>,
}

impl ServiceMix {
    /// Build from `(kind, weight)` pairs; weights are normalized.
    pub(crate) fn new(entries: &[(ServiceKind, f64)]) -> Self {
        assert!(!entries.is_empty());
        let total: f64 = entries.iter().map(|(_, w)| w).sum();
        assert!(total > 0.0, "mix weights must sum positive");
        ServiceMix {
            entries: entries
                .iter()
                .map(|&(k, w)| (k, w / total))
                .collect(),
        }
    }

    /// The AliOS normal-user mix: overwhelmingly light page/text traffic
    /// with a thin stream of heavy recommendation / classification /
    /// file-scan requests — matching e-commerce browsing, where most
    /// clicks are page views. The heavy share (20 %) is what bounds
    /// Anti-DOPE's collateral damage: only these requests ride the
    /// suspect pool during an attack (Fig 15-b's "slightly worse").
    pub fn alios_normal() -> Self {
        ServiceMix::new(&[
            (ServiceKind::TextCont, 0.80),
            (ServiceKind::WordCount, 0.10),
            (ServiceKind::KMeans, 0.06),
            (ServiceKind::CollaFilt, 0.04),
        ])
    }

    /// The normalized weight of `kind` in this mix.
    #[cfg(test)]
    pub(crate) fn weight(&self, kind: ServiceKind) -> f64 {
        self.entries
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, w)| *w)
            .unwrap_or(0.0)
    }

    /// Draw a kernel.
    pub(crate) fn sample(&self, rng: &mut SimRng) -> ServiceKind {
        let mut u = rng.unit_f64();
        for &(k, w) in &self.entries {
            if u < w {
                return k;
            }
            u -= w;
        }
        self.entries.last().expect("non-empty").0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::rng::SimRng;

    #[test]
    fn urls_are_distinct_and_reversible() {
        for k in ServiceKind::ALL {
            assert_eq!(ServiceKind::from_url(k.url()), Some(k));
        }
        assert_eq!(ServiceKind::from_url(UrlId(99)), None);
    }

    #[test]
    fn paper_orderings_hold() {
        let cf = ServiceKind::CollaFilt.profile();
        let km = ServiceKind::KMeans.profile();
        let wc = ServiceKind::WordCount.profile();
        let tc = ServiceKind::TextCont.profile();

        // Fig 5-a: Colla-Filt has the highest power intensity.
        assert!(cf.intensity > km.intensity);
        assert!(km.intensity > wc.intensity);
        assert!(wc.intensity > tc.intensity);

        // Fig 6-b: K-means the least DVFS-sensitive power.
        assert!(km.gamma < wc.gamma && km.gamma < cf.gamma && km.gamma < tc.gamma);

        // Fig 5-b: K-means costs the most energy per request on the
        // paper's server.
        let model = powercap::server_power::ServerPowerModel::paper_default();
        let (ghz, headroom_w) = (model.table.max_freq_ghz(), model.dynamic_headroom_w());
        let energies: Vec<f64> = ServiceKind::ALL
            .iter()
            .map(|k| k.profile().energy_estimate_j(ghz, headroom_w))
            .collect();
        let km_energy = km.energy_estimate_j(ghz, headroom_w);
        assert!(energies.iter().all(|&e| e <= km_energy));

        // Colla-Filt is the most CPU-bound.
        assert!(cf.beta > km.beta && cf.beta > wc.beta && cf.beta > tc.beta);
    }

    #[test]
    fn mean_service_times_reasonable() {
        // Baseline responses should be well under the paper's 40 ms mean.
        for k in ServiceKind::ALL {
            let t = k.profile().mean_service_time(2.4);
            assert!(t.as_millis() <= 45, "{k}: {t}");
            assert!(t.as_millis() >= 5, "{k}: {t}");
        }
    }

    #[test]
    fn sample_work_matches_mean() {
        let mut rng = SimRng::new(42);
        let p = ServiceKind::CollaFilt.profile();
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| p.sample_work(&mut rng)).sum::<f64>() / n as f64;
        let rel = (mean - p.mean_work_gcycles).abs() / p.mean_work_gcycles;
        assert!(rel < 0.02, "sampled mean {mean} vs {}", p.mean_work_gcycles);
    }

    #[test]
    fn sample_work_table_matches_the_formula_bit_for_bit() {
        for (i, k) in ServiceKind::ALL.into_iter().enumerate() {
            assert_eq!(k as usize, i, "the table is indexed by declaration order");
            let p = k.profile();
            let (mut a, mut b) = (SimRng::new(5), SimRng::new(5));
            for _ in 0..1000 {
                let sigma2 = (1.0 + p.work_cv * p.work_cv).ln();
                let mu = p.mean_work_gcycles.ln() - sigma2 / 2.0;
                let want = (mu + sigma2.sqrt() * b.standard_normal()).exp().max(1e-6);
                assert_eq!(p.sample_work(&mut a).to_bits(), want.to_bits(), "{k}");
            }
        }
    }

    #[test]
    fn sample_work_positive() {
        let mut rng = SimRng::new(7);
        let p = ServiceKind::TextCont.profile();
        for _ in 0..1000 {
            assert!(p.sample_work(&mut rng) > 0.0);
        }
    }

    #[test]
    fn mix_normalizes_and_samples() {
        let mix = ServiceMix::new(&[(ServiceKind::CollaFilt, 2.0), (ServiceKind::TextCont, 2.0)]);
        assert!((mix.weight(ServiceKind::CollaFilt) - 0.5).abs() < 1e-12);
        assert_eq!(mix.weight(ServiceKind::KMeans), 0.0);
        let mut rng = SimRng::new(3);
        let n = 10_000;
        let cf = (0..n)
            .filter(|_| mix.sample(&mut rng) == ServiceKind::CollaFilt)
            .count();
        let frac = cf as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.03, "frac={frac}");
    }

    #[test]
    fn alios_mix_mostly_light() {
        let mix = ServiceMix::alios_normal();
        assert!(mix.weight(ServiceKind::TextCont) >= 0.75);
        let total: f64 = ServiceKind::ALL.iter().map(|&k| mix.weight(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
