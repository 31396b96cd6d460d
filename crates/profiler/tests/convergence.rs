//! Property tests: the online profiler converges to the ground-truth
//! labels from clean synthetic observations, for any draw of intensities
//! and mixes.

use netsim::request::UrlId;
use powercap::ServerPowerModel;
use profiler::{PowerProfiler, ProfilerConfig};
use proptest::prelude::*;

/// Synthetic nominal-V/F node power for a mix under true intensities,
/// drawn by the plant's power model.
fn power_of(u: f64, mix: &[(UrlId, u32)], truth: &[f64]) -> f64 {
    let total: u32 = mix.iter().map(|&(_, n)| n).sum();
    let mean_i: f64 = mix
        .iter()
        .map(|&(url, n)| truth[url.0 as usize] * n as f64 / total as f64)
        .sum();
    let m = ServerPowerModel::paper_default();
    // A mix's mean intensity can round one ulp past 1.
    m.power(m.table.max_state(), u, mean_i.min(1.0), 0.9)
}

proptest! {
    /// Stationary traffic, no faults: within a bounded number of monitor
    /// ticks every URL's classification matches the ground-truth label
    /// `intensity > threshold`, provided the intensity clears the
    /// hysteresis band (inside the band the profiler deliberately
    /// abstains and the default class applies).
    #[test]
    fn classification_converges_to_truth(
        intensities in proptest::collection::vec(0.0f64..=1.0, 2..6),
        utils in proptest::collection::vec(0.2f64..=1.0, 3),
        seed in 0u64..1000,
    ) {
        let cfg = ProfilerConfig::default();
        let mut p = PowerProfiler::new(cfg.clone());
        let n_urls = intensities.len();
        // Deterministic pseudo-random mixes from the seed: three nodes,
        // each holding a rotating subset of the URLs.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        const TICKS: u32 = 40;
        for _ in 0..TICKS {
            for (node, &u) in utils.iter().enumerate() {
                let mut mix: Vec<(UrlId, u32)> = Vec::new();
                for url in 0..n_urls {
                    // Each URL present on ~2/3 of node-ticks with count 1..4.
                    let r = next();
                    if (r % 3) != (node as u64 % 3) || url == (node % n_urls) {
                        mix.push((UrlId(url as u16), 1 + (r >> 8) as u32 % 4));
                    }
                }
                if mix.is_empty() {
                    continue;
                }
                let y = power_of(u, &mix, &intensities);
                p.observe_node(Some(y), u, true, &mix);
            }
            p.end_tick();
        }
        for (url, &i) in intensities.iter().enumerate() {
            let url = UrlId(url as u16);
            // Only decidable outside the hysteresis band and once sampled.
            if p.confidence(url).map(|(_, _, n)| n).unwrap_or(0) < cfg.min_samples as u64 {
                continue;
            }
            if i > cfg.threshold + cfg.hysteresis {
                prop_assert!(p.list().is_suspect(url),
                    "url {url:?} with intensity {i} should be suspect; est={:?}", p.estimate(url));
            } else if i < cfg.threshold - cfg.hysteresis {
                prop_assert!(!p.list().is_suspect(url),
                    "url {url:?} with intensity {i} should be innocent; est={:?}", p.estimate(url));
            }
        }
    }

    /// Estimates themselves converge: with every URL regularly observed,
    /// the learned intensities land within a tight tolerance of truth.
    #[test]
    fn estimates_converge_pointwise(
        intensities in proptest::collection::vec(0.0f64..=1.0, 2..5),
        u in 0.3f64..=1.0,
    ) {
        let cfg = ProfilerConfig::default();
        let mut p = PowerProfiler::new(cfg.clone());
        let n = intensities.len();
        for tick in 0..30u32 {
            // Rotate through single-URL and paired mixes so the system is
            // fully excited.
            let a = (tick as usize) % n;
            let b = (tick as usize + 1) % n;
            let solo = [(UrlId(a as u16), 2)];
            let pair = [(UrlId(a.min(b) as u16), 1), (UrlId(a.max(b) as u16), 2)];
            p.observe_node(Some(power_of(u, &solo, &intensities)), u, true, &solo);
            if a != b {
                p.observe_node(Some(power_of(u, &pair, &intensities)), u, true, &pair);
            }
            p.end_tick();
        }
        for (url, &i) in intensities.iter().enumerate() {
            let est = p.estimate(UrlId(url as u16)).expect("url was observed");
            prop_assert!((est - i).abs() < 0.02, "url {url}: est {est} vs truth {i}");
        }
    }
}
