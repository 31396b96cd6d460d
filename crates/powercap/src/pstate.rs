//! ACPI P-state ladder: frequency steps, voltage model, relative dynamic
//! power.
//!
//! The paper's testbed exposes CPU frequencies "from 1.2 GHz to 2.4 GHz at
//! an interval of 0.1 GHz" (Section 3). We reproduce exactly that ladder.
//! Voltage scales affinely with frequency (a good fit for the DVFS range
//! of real parts), and dynamic power follows the classic `C·f·V²` law, so
//! relative dynamic power is close to cubic in frequency.


/// Index into a [`PStateTable`]. Index 0 is the *slowest* state; the
/// highest index is nominal frequency. (Note: opposite of ACPI numbering,
/// where P0 is fastest — an ascending ladder keeps throttling arithmetic
/// readable: "step down" = decrement.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PState(pub u8);

impl PState {
    /// Step one state down (slower), saturating at the floor.
    pub fn lower(self) -> PState {
        PState(self.0.saturating_sub(1))
    }
}

/// An immutable DVFS ladder.
#[derive(Debug, Clone)]
pub struct PStateTable {
    /// Frequencies in GHz, ascending.
    freqs_ghz: Vec<f64>,
    /// `f·V²` at each state, normalized to 1.0 at the top state.
    rel_dyn_power: Vec<f64>,
}

impl PStateTable {
    /// Build a ladder over `[f_min_ghz, f_max_ghz]` with `steps` states
    /// and voltage ramping affinely from `v_min` to `v_max`.
    pub(crate) fn new(
        f_min_ghz: f64,
        f_max_ghz: f64,
        steps: usize,
        v_min: f64,
        v_max: f64,
    ) -> Self {
        assert!(steps >= 2, "need at least two P-states");
        assert!(f_max_ghz > f_min_ghz && f_min_ghz > 0.0);
        assert!(v_max >= v_min && v_min > 0.0);
        let mut freqs_ghz = Vec::with_capacity(steps);
        let mut volts = Vec::with_capacity(steps);
        for i in 0..steps {
            let a = i as f64 / (steps - 1) as f64;
            freqs_ghz.push(f_min_ghz + a * (f_max_ghz - f_min_ghz));
            volts.push(v_min + a * (v_max - v_min));
        }
        let top = freqs_ghz[steps - 1] * volts[steps - 1] * volts[steps - 1];
        let rel_dyn_power = freqs_ghz
            .iter()
            .zip(&volts)
            .map(|(f, v)| f * v * v / top)
            .collect();
        PStateTable {
            freqs_ghz,
            rel_dyn_power,
        }
    }

    /// States in [`PStateTable::paper_default`].
    pub const PAPER_STATES: usize = 13;

    /// The paper's ladder: 1.2–2.4 GHz in 0.1 GHz steps (13 states),
    /// 0.8–1.2 V.
    pub fn paper_default() -> Self {
        PStateTable::new(1.2, 2.4, Self::PAPER_STATES, 0.8, 1.2)
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.freqs_ghz.len()
    }

    /// Always false (a table has ≥ 2 states by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The fastest (nominal) state.
    pub fn max_state(&self) -> PState {
        PState((self.len() - 1) as u8)
    }

    /// The slowest state.
    pub fn min_state(&self) -> PState {
        PState(0)
    }

    /// Clamp an arbitrary index into the valid range.
    pub(crate) fn clamp(&self, p: PState) -> PState {
        PState(p.0.min((self.len() - 1) as u8))
    }

    /// Frequency of state `p` in GHz.
    pub(crate) fn freq_ghz(&self, p: PState) -> f64 {
        self.freqs_ghz[p.0 as usize]
    }

    /// Nominal (top-state) frequency in GHz.
    pub fn max_freq_ghz(&self) -> f64 {
        *self.freqs_ghz.last().expect("non-empty")
    }

    /// Frequency of `p` relative to nominal, in `(0, 1]`.
    pub fn rel_freq(&self, p: PState) -> f64 {
        self.freq_ghz(p) / self.max_freq_ghz()
    }

    /// Dynamic power of `p` relative to nominal, in `(0, 1]`.
    pub fn rel_dyn_power(&self, p: PState) -> f64 {
        self.rel_dyn_power[p.0 as usize]
    }

    /// Iterate all states, slowest first.
    pub fn states(&self) -> impl Iterator<Item = PState> + '_ {
        (0..self.len()).map(|i| PState(i as u8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_ladder_shape() {
        let t = PStateTable::paper_default();
        assert_eq!(t.len(), 13);
        assert!((t.freq_ghz(PState(0)) - 1.2).abs() < 1e-12);
        assert!((t.freq_ghz(t.max_state()) - 2.4).abs() < 1e-12);
        assert!((t.freq_ghz(PState(1)) - 1.3).abs() < 1e-12);
    }

    #[test]
    fn rel_power_normalized_and_monotone() {
        let t = PStateTable::paper_default();
        assert!((t.rel_dyn_power(t.max_state()) - 1.0).abs() < 1e-12);
        let mut prev = 0.0;
        for p in t.states() {
            let r = t.rel_dyn_power(p);
            assert!(r > prev, "power not monotone at {p:?}");
            prev = r;
        }
        // Bottom state of the paper ladder: 1.2·0.8² / 2.4·1.2² ≈ 0.2222.
        assert!((t.rel_dyn_power(PState(0)) - 0.2222).abs() < 1e-3);
    }

    #[test]
    fn rel_freq_bounds() {
        let t = PStateTable::paper_default();
        assert!((t.rel_freq(PState(0)) - 0.5).abs() < 1e-12);
        assert!((t.rel_freq(t.max_state()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lower_raise_saturate() {
        let t = PStateTable::paper_default();
        assert_eq!(PState(0).lower(), PState(0));
        assert_eq!(PState(3).lower(), PState(2));
        assert_eq!(t.clamp(PState(200)), t.max_state());
        assert_eq!(t.clamp(PState(5)), PState(5));
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_single_state() {
        let _ = PStateTable::new(1.0, 2.0, 1, 0.8, 1.2);
    }

    proptest! {
        #[test]
        fn prop_freq_monotone_in_state(i in 0u8..12, j in 0u8..12) {
            let t = PStateTable::paper_default();
            if i < j {
                prop_assert!(t.freq_ghz(PState(i)) < t.freq_ghz(PState(j)));
            }
        }
    }
}
