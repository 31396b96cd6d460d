//! Self-contained deterministic PRNG: SplitMix64 seeding + xoshiro256**.
//!
//! We implement the generator in-crate (rather than relying on
//! `rand::rngs::SmallRng`) because `SmallRng`'s algorithm is explicitly
//! unspecified and may change between `rand` releases; a reproduction
//! repository must produce the same numbers next year. For the same
//! reason the simulator's samplers (uniform, bounded integer,
//! exponential, standard normal) live here too, so every build draws
//! the same variates.
//!
//! [`RngFactory`] derives independent named sub-streams by hashing a
//! string label into the seed (FNV-1a), so every simulation component
//! (arrival process, workload sampler, attacker, ...) owns its own stream:
//! adding a component or reordering draws in one component never perturbs
//! another component's randomness.

/// SplitMix64 step: used to expand a 64-bit seed into xoshiro state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a label, used to derive per-component seed offsets.
#[inline]
fn fnv1a(label: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in label.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// xoshiro256** — a fast, high-quality, 256-bit-state PRNG.
///
/// Reference implementation by Blackman & Vigna (public domain); this is
/// a direct transcription.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Seed from a single `u64` via SplitMix64 expansion, as recommended
    /// by the xoshiro authors.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // The all-zero state is the one invalid state; SplitMix64 cannot
        // produce four consecutive zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            SimRng { s: [1, 2, 3, 4] }
        } else {
            SimRng { s }
        }
    }

    /// The next raw 64-bit output of the generator.
    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        let result = self.s[1]
            .wrapping_mul(5)
            .rotate_left(7)
            .wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`, using the top 53 bits.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`. Panics if `lo >= hi` or not finite.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi && lo.is_finite() && hi.is_finite());
        lo + (hi - lo) * self.unit_f64()
    }

    /// Uniform integer in `[0, n)` via Lemire's multiply-shift rejection.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        // Unbiased bounded generation (Lemire 2019).
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p.clamp(0.0, 1.0)
    }

    /// Exponential variate with the given rate (mean `1/rate`), via
    /// inverse transform. Used for Poisson inter-arrival times.
    #[inline]
    pub fn exp(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exp rate must be positive");
        // 1 - unit_f64() is in (0, 1], so ln() is finite.
        -(1.0 - self.unit_f64()).ln() / rate
    }

    /// Standard normal variate by the Box–Muller transform, cosine
    /// branch: two uniforms `u1 ∈ (0, 1]` and `u2 ∈ [0, 1)` give
    /// `sqrt(−2 ln u1) · cos(2π u2)`. The paired sine variate is
    /// discarded, so sampling stays stateless (two draws per variate).
    /// A log-normal `LN(mu, sigma²)` variate is
    /// `(mu + sigma · standard_normal()).exp()`.
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = 1.0 - self.unit_f64();
        let u2 = self.unit_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// Derives independent, reproducible PRNG streams from a master seed and
/// a string label.
///
/// ```
/// use simcore::RngFactory;
/// let f = RngFactory::new(42);
/// let mut arrivals = f.stream("arrivals");
/// let mut attacker = f.stream("attacker");
/// // Streams are independent: drawing from one never affects the other,
/// // and the same (seed, label) pair always yields the same stream.
/// let a = arrivals.unit_f64();
/// let b = f.stream("arrivals").unit_f64();
/// assert_eq!(a, b);
/// let _ = attacker.unit_f64();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngFactory {
    master: u64,
}

impl RngFactory {
    /// Create a factory from a master seed.
    pub fn new(master: u64) -> Self {
        RngFactory { master }
    }

    /// Derive the stream named `label`.
    pub fn stream(&self, label: &str) -> SimRng {
        SimRng::new(self.master ^ fnv1a(label))
    }

    /// Derive an indexed stream, e.g. one per server: `stream_n("server", 7)`.
    pub(crate) fn stream_n(&self, label: &str, index: u64) -> SimRng {
        let mut s = index.wrapping_add(0xA076_1D64_78BD_642F);
        SimRng::new(self.master ^ fnv1a(label) ^ splitmix64(&mut s))
    }

    /// Derive the per-shard factory for dataplane shard `index`.
    ///
    /// Each shard of the parallel cluster engine owns its own stream
    /// space so that randomness drawn inside one shard never perturbs
    /// another shard regardless of event interleaving. The derivation is
    /// a pure function of `(master, index)`, so the same seed and shard
    /// layout always reproduce the same streams.
    #[cfg(test)]
    pub(crate) fn shard(&self, index: u64) -> RngFactory {
        let mut s = index.wrapping_add(0x9E37_79B9_7F4A_7C15);
        RngFactory {
            master: self.master ^ splitmix64(&mut s).rotate_left(23),
        }
    }
}

/// Well-known stream labels shared across crates.
///
/// Components that draw from a [`RngFactory`] stream should name the
/// stream through a constant here rather than an ad-hoc string literal:
/// two components accidentally sharing a label would share a stream, and
/// typo'd labels silently decouple a replay from the run it is supposed
/// to reproduce.
pub mod streams {
    /// Fault-injection draws (sensor dropout, actuator stalls, crashes).
    pub(crate) const FAULTS: &str = "faults";
    /// URL-rotation schedule of the adaptive attacker (kept separate
    /// from its arrival/jitter stream so rotating more or less often
    /// never perturbs the arrival process).
    pub const ATTACK_ROTATION: &str = "attack-rotation";
    /// Backoff jitter of the NLB retry path (kept separate from every
    /// other stream so enabling retries never perturbs arrivals, faults,
    /// or the attacker).
    pub const RETRY: &str = "retry";
    /// Rack-target schedule of the concentrating flood attacker (kept
    /// separate from its arrival/jitter stream so re-aiming the flood
    /// never perturbs the arrival process).
    pub const ATTACK_FOCUS: &str = "attack-focus";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xoshiro_reference_vector() {
        // Seed-0 outputs, pinned as literals: if this changes, every
        // experiment in EXPERIMENTS.md changes too.
        let mut rng = SimRng::new(0);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            [
                0x99ec_5f36_cb75_f2b4,
                0xbf6e_1f78_4956_452a,
                0x1a5f_849d_4933_e6e0,
                0x6aa5_94f1_262d_2d2c,
            ]
        );
        assert_eq!(SimRng::new(0).unit_f64(), 0.6012629994179048);
        assert_eq!(SimRng::new(0).standard_normal(), -0.01896499060631051);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<u64> = {
            let mut r = SimRng::new(1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SimRng::new(2);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn unit_f64_in_range() {
        let mut rng = SimRng::new(7);
        for _ in 0..10_000 {
            let x = rng.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn unit_f64_mean_near_half() {
        let mut rng = SimRng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.unit_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn below_is_bounded_and_covers() {
        let mut rng = SimRng::new(3);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = rng.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn exp_mean_matches_rate() {
        let mut rng = SimRng::new(5);
        let rate = 4.0;
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| rng.exp(rate)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = SimRng::new(13);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean={mean}");
        assert!((var - 1.0).abs() < 0.02, "var={var}");
        assert!(xs.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(9);
        assert!(!(0..1000).any(|_| rng.chance(0.0)));
        assert!((0..1000).all(|_| rng.chance(1.0)));
    }

    #[test]
    fn well_known_stream_labels_are_distinct() {
        let f = RngFactory::new(7);
        assert_ne!(
            f.stream(streams::FAULTS).next_u64(),
            f.stream(streams::ATTACK_ROTATION).next_u64()
        );
    }

    #[test]
    fn factory_streams_independent_and_reproducible() {
        let f = RngFactory::new(1234);
        let mut a1 = f.stream("a");
        let mut b = f.stream("b");
        // Interleave draws; stream "a" must be unaffected by "b".
        let mut reference = f.stream("a");
        for _ in 0..100 {
            let _ = b.next_u64();
            assert_eq!(a1.next_u64(), reference.next_u64());
        }
    }

    #[test]
    fn indexed_streams_differ() {
        let f = RngFactory::new(99);
        let x = f.stream_n("server", 0).next_u64();
        let y = f.stream_n("server", 1).next_u64();
        assert_ne!(x, y);
    }

    #[test]
    fn shard_factories_are_distinct_and_reproducible() {
        let f = RngFactory::new(2019);
        let a = f.shard(0).stream("arrivals").next_u64();
        let b = f.shard(1).stream("arrivals").next_u64();
        let c = f.shard(2).stream("arrivals").next_u64();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
        // Shard streams never collide with the parent's own streams.
        assert_ne!(a, f.stream("arrivals").next_u64());
        // Pure function of (master, index): rebuilding reproduces.
        assert_eq!(a, RngFactory::new(2019).shard(0).stream("arrivals").next_u64());
    }
}
