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

/// States on the paper's ladder.
const STATES: usize = 13;

/// An immutable DVFS ladder. The paper's testbed has one, held once in
/// a `static` ([`PStateTable::paper_default`]).
#[derive(Debug)]
pub struct PStateTable {
    /// Frequencies in GHz, ascending.
    freqs_ghz: [f64; STATES],
    /// `f·V²` at each state, normalized to 1.0 at the top state.
    rel_dyn_power: [f64; STATES],
}

/// The paper's ladder: 1.2–2.4 GHz in 0.1 GHz steps, 0.8–1.2 V.
static PAPER_LADDER: PStateTable = PStateTable::ladder(1.2, 2.4, 0.8, 1.2);

impl PStateTable {
    /// The ladder over `[f_min_ghz, f_max_ghz]` with voltage ramping
    /// affinely from `v_min` to `v_max`, evaluated at compile time.
    const fn ladder(f_min_ghz: f64, f_max_ghz: f64, v_min: f64, v_max: f64) -> Self {
        let mut freqs_ghz = [0.0; STATES];
        let mut volts = [0.0; STATES];
        let mut i = 0;
        while i < STATES {
            let a = i as f64 / (STATES - 1) as f64;
            freqs_ghz[i] = f_min_ghz + a * (f_max_ghz - f_min_ghz);
            volts[i] = v_min + a * (v_max - v_min);
            i += 1;
        }
        let top = freqs_ghz[STATES - 1] * volts[STATES - 1] * volts[STATES - 1];
        let mut rel_dyn_power = [0.0; STATES];
        let mut i = 0;
        while i < STATES {
            rel_dyn_power[i] = freqs_ghz[i] * volts[i] * volts[i] / top;
            i += 1;
        }
        PStateTable {
            freqs_ghz,
            rel_dyn_power,
        }
    }

    /// States in [`PStateTable::paper_default`].
    pub const PAPER_STATES: usize = STATES;

    /// The paper's ladder: 1.2–2.4 GHz in 0.1 GHz steps (13 states),
    /// 0.8–1.2 V.
    pub const fn paper_default() -> &'static PStateTable {
        &PAPER_LADDER
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        STATES
    }

    /// Always false (the ladder has 13 states).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The fastest (nominal) state.
    pub fn max_state(&self) -> PState {
        PState((STATES - 1) as u8)
    }

    /// The slowest state.
    pub fn min_state(&self) -> PState {
        PState(0)
    }

    /// The fastest state clocked at most `ghz` (within 1 Hz of
    /// rounding), or the slowest state if none is.
    pub fn fastest_at_most(&self, ghz: f64) -> PState {
        let at_most = self.freqs_ghz.iter().take_while(|&&f| f <= ghz + 1e-9).count();
        PState(at_most.saturating_sub(1) as u8)
    }

    /// Clamp an arbitrary index into the valid range.
    pub(crate) fn clamp(&self, p: PState) -> PState {
        PState(p.0.min((STATES - 1) as u8))
    }

    /// Frequency of state `p` in GHz.
    pub(crate) fn freq_ghz(&self, p: PState) -> f64 {
        self.freqs_ghz[p.0 as usize]
    }

    /// Nominal (top-state) frequency in GHz.
    pub fn max_freq_ghz(&self) -> f64 {
        self.freqs_ghz[STATES - 1]
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
    fn fastest_at_most_looks_states_up_by_frequency() {
        let t = PStateTable::paper_default();
        assert_eq!(t.fastest_at_most(1.6), PState(4));
        assert_eq!(t.fastest_at_most(1.65), PState(4));
        assert_eq!(t.fastest_at_most(2.4), t.max_state());
        assert_eq!(t.fastest_at_most(9.0), t.max_state());
        assert_eq!(t.fastest_at_most(1.2), t.min_state());
        assert_eq!(t.fastest_at_most(0.5), t.min_state());
        for p in t.states() {
            assert_eq!(t.fastest_at_most(t.freq_ghz(p)), p);
        }
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
    fn const_ladder_matches_the_runtime_law_bit_for_bit() {
        // The same f·V²/top law evaluated at run time.
        let t = PStateTable::paper_default();
        let (f_min, f_max, v_min, v_max) = std::hint::black_box((1.2, 2.4, 0.8, 1.2));
        let at = |i: usize| {
            let a = i as f64 / (STATES - 1) as f64;
            (f_min + a * (f_max - f_min), v_min + a * (v_max - v_min))
        };
        let (ft, vt) = at(STATES - 1);
        let top = ft * vt * vt;
        for p in t.states() {
            let (f, v) = at(p.0 as usize);
            assert_eq!(t.freq_ghz(p).to_bits(), f.to_bits(), "{p:?}");
            assert_eq!(
                t.rel_dyn_power(p).to_bits(),
                (f * v * v / top).to_bits(),
                "{p:?}"
            );
        }
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
