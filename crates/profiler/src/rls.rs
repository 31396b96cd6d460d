//! Exponentially-weighted recursive least squares over a fixed-capacity
//! coefficient vector.
//!
//! The attribution problem is linear at the nominal V/F point: a node's
//! normalized dynamic power equals the in-flight-share-weighted mean of
//! the per-URL intensities (see [`crate::PowerProfiler`]). Each
//! observation is a sparse feature vector (shares of the URLs resident on
//! one node) and a scalar target; EW-RLS discounts old evidence by a
//! forgetting factor λ so the map tracks drift.
//!
//! Coordinates are recycled: when a URL is evicted, its row and column of
//! the covariance are reset to the prior so the dimension can be reused
//! by a newcomer without contaminating it with the old URL's history.
//!
//! # Live and frozen coordinates
//!
//! The estimator keeps a sorted set of *live* coordinates. [`EwRls::new`]
//! starts with every coordinate live, `EwRls::reset_coord` makes one
//! live and [`EwRls::release`] freezes one until its next reset. A frozen
//! coordinate's coefficient, row and column are left untouched by
//! [`EwRls::observe`], which runs over the live block only: with `L` live
//! coordinates and `nnz` features, one observation costs
//! O(L² + L·nnz) instead of O(dim²). A tracker that uses 4 of its 32
//! coordinates does 16 covariance updates per observation, not 1,024.
//! The saving needs few live coordinates: the covariance sweep indexes
//! the live columns, so with every coordinate live it does the dense
//! pass's work at a higher cost per entry.
//!
//! Every feature of an observation must be live. `observe` runs the
//! dense update's sweeps (`P·x`, the coefficients, the covariance and the
//! cap sweep) with every index restricted to the live set, in the same
//! ascending order, so each live entry sees the same operations in the
//! same order. None of them lets a live entry read a frozen one: `P·x`
//! over a live row reads that row's feature columns, which are live, the
//! covariance update of `(r, c)` reads `px[r]` and `px[c]`, and a
//! coordinate's cap scales only its own row and column. So the live block
//! evolves bit for bit as under the dense update over all coordinates.
//! What the dense update would still do to a frozen coordinate (drift its
//! diagonal, and move its coefficient and cross terms if they are not
//! zero) is overwritten by the reset that makes it live again, so no
//! estimate ever reads it.

/// EW-RLS state: coefficients `theta` and inverse-covariance-scaled
/// matrix `P`, dense over a fixed dimension and updated over the live
/// coordinates only.
#[derive(Debug, Clone)]
pub struct EwRls {
    dim: usize,
    lambda: f64,
    variance_cap: f64,
    /// Coefficient estimates, one per coordinate.
    theta: Vec<f64>,
    /// Covariance matrix, row-major `dim × dim`.
    p: Vec<f64>,
    /// Live coordinates, ascending.
    live: Vec<usize>,
    /// Scratch: `P · x` for the current observation (live rows only).
    px: Vec<f64>,
    /// Run [`EwRls::observe_dense`] in place of the live-block update.
    #[cfg(test)]
    pub(crate) dense: bool,
}

impl EwRls {
    /// Estimator of `dim` coefficients with prior mean/variance on each,
    /// every coordinate live.
    pub fn new(dim: usize, lambda: f64, prior_mean: f64, prior_var: f64) -> Self {
        assert!(dim >= 1, "EwRls needs at least one coordinate");
        assert!(
            lambda > 0.0 && lambda <= 1.0,
            "forgetting factor must be in (0, 1]"
        );
        let mut p = vec![0.0; dim * dim];
        for i in 0..dim {
            p[i * dim + i] = prior_var;
        }
        EwRls {
            dim,
            lambda,
            variance_cap: prior_var.max(1.0) * 2.0,
            theta: vec![prior_mean; dim],
            p,
            live: (0..dim).collect(),
            px: vec![0.0; dim],
            #[cfg(test)]
            dense: false,
        }
    }

    /// Override the variance cap (covariance limiting bound).
    pub fn set_variance_cap(&mut self, cap: f64) {
        assert!(cap > 0.0);
        self.variance_cap = cap;
    }

    /// Current estimate of coordinate `i`.
    pub(crate) fn theta(&self, i: usize) -> f64 {
        self.theta[i]
    }

    /// Current variance of coordinate `i` (diagonal of `P`).
    #[cfg(test)]
    pub(crate) fn variance(&self, i: usize) -> f64 {
        self.p[i * self.dim + i]
    }

    /// The live coordinates, ascending.
    #[cfg(test)]
    pub(crate) fn live(&self) -> &[usize] {
        &self.live
    }

    /// Predicted target for a sparse feature vector.
    pub(crate) fn predict(&self, x: &[(usize, f64)]) -> f64 {
        x.iter().map(|&(i, v)| self.theta[i] * v).sum()
    }

    /// Reset coordinate `i` to the prior and make it live: zero its
    /// covariance row/column, restore the prior variance, and re-seed the
    /// coefficient. Used on eviction (coordinate recycled for a new URL)
    /// and on detected drift (old evidence no longer valid).
    pub(crate) fn reset_coord(&mut self, i: usize, prior_mean: f64, prior_var: f64) {
        for j in 0..self.dim {
            self.p[i * self.dim + j] = 0.0;
            self.p[j * self.dim + i] = 0.0;
        }
        self.p[i * self.dim + i] = prior_var;
        self.theta[i] = prior_mean;
        if let Err(at) = self.live.binary_search(&i) {
            self.live.insert(at, i);
        }
    }

    /// Freeze coordinate `i` until its next `EwRls::reset_coord`:
    /// [`EwRls::observe`] leaves its coefficient, row and column as they
    /// are. Releasing a frozen coordinate does nothing.
    pub fn release(&mut self, i: usize) {
        if let Ok(at) = self.live.binary_search(&i) {
            self.live.remove(at);
        }
    }

    /// One recursive update with sparse features `x` and target `y`; every
    /// feature's coordinate must be live. Returns the *a-priori* residual
    /// `y − x·theta` (the drift signal: prediction error before this
    /// observation was absorbed).
    pub fn observe(&mut self, x: &[(usize, f64)], y: f64) -> f64 {
        #[cfg(test)]
        if self.dense {
            return self.observe_dense(x, y);
        }
        assert!(
            x.iter().all(|(j, _)| self.live.binary_search(j).is_ok()),
            "EwRls::observe on a frozen coordinate"
        );
        let d = self.dim;
        // px = P · x over live rows, accumulated in `x` order.
        for &r in &self.live {
            let row = &self.p[r * d..][..d];
            self.px[r] = x.iter().fold(0.0, |acc, &(j, xj)| acc + row[j] * xj);
        }
        // Gain denominator λ + xᵀPx and a-priori residual.
        let s: f64 = x.iter().map(|&(j, xj)| self.px[j] * xj).sum();
        let denom = self.lambda + s;
        let residual = y - self.predict(x);
        // theta += (px / denom) · residual.
        let g = residual / denom;
        for &r in &self.live {
            self.theta[r] += self.px[r] * g;
        }
        // P = (P − px·pxᵀ / denom) / λ over the live block.
        let inv_l = 1.0 / self.lambda;
        for &r in &self.live {
            let pr = self.px[r] / denom;
            let row = &mut self.p[r * d..][..d];
            for &c in &self.live {
                row[c] = (row[c] - pr * self.px[c]) * inv_l;
            }
        }
        // Covariance limiting: forgetting inflates unexcited directions
        // without bound; clamp each diagonal by a congruence scaling that
        // preserves symmetry and positive-definiteness.
        for &i in &self.live {
            let pii = self.p[i * d + i];
            if pii > self.variance_cap {
                let scale = (self.variance_cap / pii).sqrt();
                for &j in &self.live {
                    self.p[i * d + j] *= scale;
                    self.p[j * d + i] *= scale;
                }
            }
        }
        residual
    }

    /// The dense update over every coordinate, live or not: the reference
    /// the live-block [`EwRls::observe`] must match bit for bit.
    #[cfg(test)]
    fn observe_dense(&mut self, x: &[(usize, f64)], y: f64) -> f64 {
        let d = self.dim;
        self.px.iter_mut().for_each(|v| *v = 0.0);
        for &(j, xj) in x {
            for r in 0..d {
                self.px[r] += self.p[r * d + j] * xj;
            }
        }
        let s: f64 = x.iter().map(|&(j, xj)| self.px[j] * xj).sum();
        let denom = self.lambda + s;
        let residual = y - self.predict(x);
        let g = residual / denom;
        for r in 0..d {
            self.theta[r] += self.px[r] * g;
        }
        let inv_l = 1.0 / self.lambda;
        for r in 0..d {
            let pr = self.px[r] / denom;
            for c in 0..d {
                self.p[r * d + c] = (self.p[r * d + c] - pr * self.px[c]) * inv_l;
            }
        }
        for i in 0..d {
            let pii = self.p[i * d + i];
            if pii > self.variance_cap {
                let scale = (self.variance_cap / pii).sqrt();
                for j in 0..d {
                    self.p[i * d + j] *= scale;
                    self.p[j * d + i] *= scale;
                }
            }
        }
        residual
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_coefficients_from_clean_mixes() {
        // True coefficients; observations are exact mixtures. With
        // forgetting, the ridge bias of the prior decays like λⁿ/P₀, so
        // after enough persistently exciting rounds the estimates are
        // tight even though each single step only contracts by ≈ λ.
        let truth = [0.98, 0.35, 0.78];
        let mut rls = EwRls::new(3, 0.90, 0.5, 25.0);
        let mixes: [&[(usize, f64)]; 4] = [
            &[(0, 1.0)],
            &[(1, 0.5), (2, 0.5)],
            &[(0, 0.3), (1, 0.7)],
            &[(0, 0.2), (1, 0.3), (2, 0.5)],
        ];
        for round in 0..100 {
            let x = mixes[round % mixes.len()];
            let y: f64 = x.iter().map(|&(i, v)| truth[i] * v).sum();
            rls.observe(x, y);
        }
        for (i, &t) in truth.iter().enumerate() {
            assert!(
                (rls.theta(i) - t).abs() < 1e-4,
                "coord {i}: {} vs {t}",
                rls.theta(i)
            );
        }
    }

    #[test]
    fn residual_shrinks_as_it_learns() {
        let mut rls = EwRls::new(2, 0.95, 0.5, 25.0);
        let x: &[(usize, f64)] = &[(0, 0.6), (1, 0.4)];
        let first = rls.observe(x, 0.9).abs();
        let mut last = first;
        for _ in 0..10 {
            last = rls.observe(x, 0.9).abs();
        }
        assert!(last < first * 0.05, "first={first} last={last}");
    }

    #[test]
    fn forgetting_tracks_a_changed_coefficient() {
        let mut rls = EwRls::new(1, 0.90, 0.5, 25.0);
        for _ in 0..50 {
            rls.observe(&[(0, 1.0)], 0.2);
        }
        assert!((rls.theta(0) - 0.2).abs() < 1e-2, "theta={}", rls.theta(0));
        // The coefficient jumps; forgetting flushes the stale evidence at
        // rate λⁿ, so 50 more observations re-converge onto the new value.
        for _ in 0..50 {
            rls.observe(&[(0, 1.0)], 0.9);
        }
        assert!((rls.theta(0) - 0.9).abs() < 1e-2, "theta={}", rls.theta(0));
    }

    #[test]
    fn unexcited_variance_is_capped() {
        let mut rls = EwRls::new(2, 0.90, 0.5, 4.0);
        rls.set_variance_cap(8.0);
        // Only coordinate 0 is ever excited; coordinate 1's variance must
        // stay bounded despite 1/λ inflation every step.
        for _ in 0..500 {
            rls.observe(&[(0, 1.0)], 0.7);
        }
        assert!(rls.variance(1) <= 8.0 + 1e-9, "var={}", rls.variance(1));
        assert!(rls.variance(0) < 1.0);
    }

    #[test]
    fn reset_coord_restores_the_prior() {
        let mut rls = EwRls::new(2, 0.98, 0.5, 4.0);
        for _ in 0..10 {
            rls.observe(&[(0, 0.5), (1, 0.5)], 0.8);
        }
        rls.reset_coord(1, 0.5, 4.0);
        assert_eq!(rls.theta(1), 0.5);
        assert_eq!(rls.variance(1), 4.0);
        // Cross-covariance cleared.
        assert_eq!(rls.p[1], 0.0);
        assert_eq!(rls.p[2], 0.0);
        // The untouched coordinate keeps its learned state.
        assert!(rls.variance(0) < 4.0);
    }

    /// Bits of coordinate `i`'s coefficient, row and column.
    fn coord_bits(rls: &EwRls, i: usize) -> Vec<u64> {
        let d = rls.dim;
        let row = (0..d).map(|j| rls.p[i * d + j]);
        let col = (0..d).map(|j| rls.p[j * d + i]);
        std::iter::once(rls.theta(i))
            .chain(row)
            .chain(col)
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn released_coordinate_is_inert() {
        let mut rls = EwRls::new(3, 0.9, 0.5, 4.0);
        rls.set_variance_cap(6.0);
        let mixes: [&[(usize, f64)]; 3] = [
            &[(0, 0.5), (2, 0.5)],
            &[(1, 1.0)],
            &[(0, 0.2), (1, 0.3), (2, 0.5)],
        ];
        for round in 0..12 {
            rls.observe(mixes[round % 3], 0.3 + 0.05 * round as f64);
        }
        // Released with learned cross terms, not reset first.
        rls.release(2);
        let frozen = coord_bits(&rls, 2);
        assert_ne!(rls.p[2 * 3], 0.0, "coordinate 2 holds cross terms");
        for round in 0..40 {
            let x: &[(usize, f64)] = if round % 2 == 0 {
                &[(0, 0.6), (1, 0.4)]
            } else {
                &[(1, 1.0)]
            };
            rls.observe(x, 0.9);
        }
        assert_eq!(coord_bits(&rls, 2), frozen);
        assert_eq!(rls.live(), &[0, 1]);
        rls.reset_coord(2, 0.5, 4.0);
        assert_eq!(rls.live(), &[0, 1, 2]);
        assert_eq!(
            coord_bits(&rls, 2),
            coord_bits(&EwRls::new(3, 0.9, 0.5, 4.0), 2)
        );
    }

    #[test]
    #[should_panic(expected = "frozen coordinate")]
    fn observing_a_frozen_coordinate_panics() {
        let mut rls = EwRls::new(2, 0.9, 0.5, 4.0);
        rls.release(1);
        rls.observe(&[(0, 0.5), (1, 0.5)], 0.7);
    }

    #[test]
    fn live_block_matches_the_dense_update_bit_for_bit() {
        // Coordinates 0, 2, 3 live and coordinate 1 reset then released:
        // the live entries of both estimators must agree exactly. The cap
        // sits just above the prior, so coordinates are capped together
        // and the order of their scales shows.
        let fresh = || {
            let mut rls = EwRls::new(5, 0.8, 0.5, 4.0);
            rls.set_variance_cap(4.2);
            rls
        };
        let (mut live, mut dense) = (fresh(), fresh());
        dense.dense = true;
        for rls in [&mut live, &mut dense] {
            rls.observe(&[(1, 0.5), (3, 0.5)], 0.6);
            rls.reset_coord(1, 0.5, 4.0);
            rls.release(1);
            rls.release(4);
        }
        let mixes: [&[(usize, f64)]; 4] = [
            &[(0, 0.25), (2, 0.75)],
            &[(3, 1.0)],
            &[(0, 0.5), (2, 0.25), (3, 0.25)],
            &[(2, 1.0)],
        ];
        for round in 0..200 {
            let x = mixes[(round / 7 + round) % 4];
            let y = 0.2 + 0.7 * ((round as f64) * 0.37).sin().abs();
            assert_eq!(live.observe(x, y).to_bits(), dense.observe(x, y).to_bits());
            for r in [0, 2, 3] {
                assert_eq!(live.theta(r).to_bits(), dense.theta(r).to_bits());
                for c in [0, 2, 3] {
                    assert_eq!(live.p[r * 5 + c].to_bits(), dense.p[r * 5 + c].to_bits());
                }
            }
        }
    }
}
