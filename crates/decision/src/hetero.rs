//! Heterogeneous inputs: player `i` receives `x_i ~ U[0, c_i]` with
//! per-player input scales `c_i` — the "more realistic assumptions on
//! the distribution of inputs" the paper's Section 6 anticipates, in
//! the threshold-rule setting.
//!
//! The framework carries over verbatim: conditional on the decision
//! vector, bin-0 inputs are uniform on `[0, a_i]` and bin-1 inputs on
//! `[a_i, c_i]`, so Lemma 2.4's machinery (via [`UniformSum`](uniform_sums::UniformSum)) gives
//! exact winning probabilities. The whole problem is scale-covariant:
//! multiplying every `c_i`, `a_i`, and `δ` by `λ` leaves the winning
//! probability unchanged (asserted in the tests).

use crate::winning::MAX_EXACT_PLAYERS;
use crate::{Capacity, ModelError};
use rational::{Rational, Scalar};
use uniform_sums::{box_sum_cdf_in, shifted_box_sum_cdf_in};

/// A heterogeneous-input threshold system: per-player input scales
/// `c_i > 0` and thresholds `a_i ∈ [0, c_i]` (player `i` picks bin 0
/// iff `x_i ≤ a_i`).
///
/// # Examples
///
/// ```
/// use decision::hetero::HeterogeneousThresholds;
/// use decision::Capacity;
/// use rational::Rational;
///
/// // A big job source (inputs up to 2) and a small one (up to 1/2).
/// let system = HeterogeneousThresholds::new(
///     vec![Rational::integer(2), Rational::ratio(1, 2)],
///     vec![Rational::one(), Rational::ratio(1, 4)],
/// ).unwrap();
/// let p = system.winning_probability(&Capacity::unit()).unwrap();
/// assert!(p.is_positive() && p < Rational::one());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeterogeneousThresholds {
    scales: Vec<Rational>,
    thresholds: Vec<Rational>,
}

impl HeterogeneousThresholds {
    /// Builds the system.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if fewer than two players, any scale is
    /// not positive, or any threshold falls outside `[0, c_i]`.
    pub fn new(
        scales: Vec<Rational>,
        thresholds: Vec<Rational>,
    ) -> Result<HeterogeneousThresholds, ModelError> {
        if scales.len() < 2 || scales.len() != thresholds.len() {
            return Err(ModelError::TooFewPlayers { n: scales.len() });
        }
        for (index, (c, a)) in scales.iter().zip(&thresholds).enumerate() {
            if !c.is_positive() {
                return Err(ModelError::ThresholdOutOfRange { index });
            }
            if a.is_negative() || a > c {
                return Err(ModelError::ThresholdOutOfRange { index });
            }
        }
        Ok(HeterogeneousThresholds { scales, thresholds })
    }

    /// The homogeneous special case `c_i = 1` of the paper's model.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] on invalid thresholds.
    pub fn homogeneous(thresholds: Vec<Rational>) -> Result<HeterogeneousThresholds, ModelError> {
        let scales = vec![Rational::one(); thresholds.len()];
        HeterogeneousThresholds::new(scales, thresholds)
    }

    /// Number of players.
    #[must_use]
    pub fn n(&self) -> usize {
        self.scales.len()
    }

    /// Per-player input scales `c`.
    #[must_use]
    pub fn scales(&self) -> &[Rational] {
        &self.scales
    }

    /// Per-player thresholds `a`.
    #[must_use]
    pub fn thresholds(&self) -> &[Rational] {
        &self.thresholds
    }

    /// The system with every scale, threshold (and, by the caller, the
    /// capacity) multiplied by `lambda` — used to state the exact
    /// scale-covariance law.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not strictly positive.
    #[must_use]
    pub fn scaled(&self, lambda: &Rational) -> HeterogeneousThresholds {
        assert!(lambda.is_positive(), "scale must be positive");
        HeterogeneousThresholds {
            scales: self.scales.iter().map(|c| c * lambda).collect(),
            thresholds: self.thresholds.iter().map(|a| a * lambda).collect(),
        }
    }

    /// Exact winning probability `P(Σ₀ ≤ δ ∧ Σ₁ ≤ δ)`: the
    /// [`Rational`] instantiation of [`Self::winning_probability_in`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::TooManyPlayersForExact`] if `n > 22`.
    pub fn winning_probability(&self, capacity: &Capacity) -> Result<Rational, ModelError> {
        self.winning_probability_in(capacity.value())
    }

    /// Fast `f64` winning probability: the float instantiation of
    /// [`Self::winning_probability_in`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::TooManyPlayersForExact`] if `n > 22`.
    pub fn winning_probability_f64(&self, delta: f64) -> Result<f64, ModelError> {
        self.winning_probability_in(&delta)
    }

    /// Winning probability in any [`Scalar`] instantiation. Conditional
    /// on the decision vector, bin-0 inputs are `U[0, a_i]` and bin-1
    /// inputs `U[a_i, c_i]`, so Lemma 2.4 ([`box_sum_cdf_in`]) and its
    /// shifted form ([`shifted_box_sum_cdf_in`]) give the two
    /// conditional CDFs; the `2^n` decision vectors are enumerated.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::TooManyPlayersForExact`] if `n > 22`.
    pub fn winning_probability_in<S: Scalar>(&self, delta: &S) -> Result<S, ModelError> {
        let n = self.n();
        if n > MAX_EXACT_PLAYERS {
            return Err(ModelError::TooManyPlayersForExact {
                n,
                max: MAX_EXACT_PLAYERS,
            });
        }
        let scales: Vec<S> = self.scales.iter().map(S::from_rational).collect();
        let thresholds: Vec<S> = self.thresholds.iter().map(S::from_rational).collect();
        let mut total = S::zero();
        for mask in 0u32..(1u32 << n) {
            // Bit i set: player i in bin 1 (x_i > a_i).
            let mut prob = S::one();
            // Bin 0: widths a_i. Bin 1: U[a_i, c_i] = a_i + U[0, c_i − a_i].
            let mut bin0: Vec<S> = Vec::new();
            let mut bin1_widths: Vec<S> = Vec::new();
            let mut bin1_offset = S::zero();
            for i in 0..n {
                let (c, a) = (&scales[i], &thresholds[i]);
                if mask >> i & 1 == 0 {
                    prob = prob * (a.clone() / c.clone());
                    if a.is_positive() {
                        bin0.push(a.clone());
                    }
                } else {
                    prob = prob * ((c.clone() - a.clone()) / c.clone());
                    if a < c {
                        bin1_widths.push(c.clone() - a.clone());
                        bin1_offset = bin1_offset + a.clone();
                    }
                }
            }
            if prob.is_zero() {
                continue;
            }
            let f0 = if bin0.is_empty() {
                S::one()
            } else {
                box_sum_cdf_in(&bin0, delta)
            };
            if f0.is_zero() {
                continue;
            }
            let f1 = if bin1_widths.is_empty() {
                S::one()
            } else {
                shifted_box_sum_cdf_in(&bin1_widths, &bin1_offset, delta)
            };
            total = total + prob * f0 * f1;
        }
        S::ensure_probability(&total);
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{winning_probability_threshold, SingleThresholdAlgorithm};

    fn r(n: i64, d: i64) -> Rational {
        Rational::ratio(n, d)
    }

    #[test]
    fn homogeneous_case_matches_standard_model() {
        let thresholds = vec![r(1, 3), r(5, 8), r(1, 2)];
        let hetero = HeterogeneousThresholds::homogeneous(thresholds.clone()).unwrap();
        let standard = SingleThresholdAlgorithm::new(thresholds).unwrap();
        for cap in [Capacity::unit(), Capacity::new(r(4, 3)).unwrap()] {
            assert_eq!(
                hetero.winning_probability(&cap).unwrap(),
                winning_probability_threshold(&standard, &cap).unwrap(),
                "{cap}"
            );
        }
    }

    #[test]
    fn scale_covariance_law() {
        let system = HeterogeneousThresholds::new(
            vec![r(2, 1), r(1, 2), r(1, 1)],
            vec![r(1, 1), r(1, 4), r(3, 5)],
        )
        .unwrap();
        let delta = r(5, 4);
        let base = system
            .winning_probability(&Capacity::new(delta.clone()).unwrap())
            .unwrap();
        for lambda in [r(2, 1), r(1, 3), r(7, 5)] {
            let scaled = system.scaled(&lambda);
            let scaled_cap = Capacity::new(&delta * &lambda).unwrap();
            assert_eq!(
                scaled.winning_probability(&scaled_cap).unwrap(),
                base,
                "λ = {lambda}"
            );
        }
    }

    #[test]
    fn bigger_inputs_hurt() {
        let cap = Capacity::unit();
        let small =
            HeterogeneousThresholds::new(vec![r(1, 1), r(1, 1)], vec![r(1, 2), r(1, 2)]).unwrap();
        let big =
            HeterogeneousThresholds::new(vec![r(2, 1), r(2, 1)], vec![r(1, 2), r(1, 2)]).unwrap();
        assert!(big.winning_probability(&cap).unwrap() < small.winning_probability(&cap).unwrap());
    }

    #[test]
    fn validation_rejects_inconsistent_inputs() {
        assert!(HeterogeneousThresholds::new(vec![r(1, 1)], vec![r(1, 2)]).is_err());
        assert!(
            HeterogeneousThresholds::new(vec![r(1, 1), r(0, 1)], vec![r(1, 2), r(0, 1)]).is_err()
        );
        // Threshold above the scale.
        assert!(
            HeterogeneousThresholds::new(vec![r(1, 1), r(1, 2)], vec![r(1, 2), r(3, 4)]).is_err()
        );
    }

    #[test]
    fn degenerate_thresholds_at_bounds() {
        // a_0 = 0 (always bin 1), a_1 = c_1 (always bin 0).
        let system =
            HeterogeneousThresholds::new(vec![r(1, 2), r(1, 2)], vec![r(0, 1), r(1, 2)]).unwrap();
        // Each bin holds one U[0,1/2] input; δ = 1/2 covers both.
        let p = system
            .winning_probability(&Capacity::new(r(1, 2)).unwrap())
            .unwrap();
        assert_eq!(p, Rational::one());
    }

    #[test]
    fn float_instantiation_tracks_exact() {
        let system = HeterogeneousThresholds::new(
            vec![r(3, 2), r(1, 1), r(1, 2)],
            vec![r(3, 4), r(1, 2), r(1, 4)],
        )
        .unwrap();
        for (num, den) in [(1i64, 2i64), (1, 1), (5, 4), (3, 1)] {
            let delta = r(num, den);
            let exact = system
                .winning_probability(&Capacity::new(delta.clone()).unwrap())
                .unwrap()
                .to_f64();
            let fast = system.winning_probability_f64(delta.to_f64()).unwrap();
            assert!((exact - fast).abs() < 1e-12, "δ={delta}: {exact} vs {fast}");
        }
    }

    #[test]
    fn monte_carlo_agreement() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let system = HeterogeneousThresholds::new(
            vec![r(3, 2), r(1, 1), r(1, 2)],
            vec![r(3, 4), r(1, 2), r(1, 4)],
        )
        .unwrap();
        let delta = 1.25f64;
        let exact = system
            .winning_probability(&Capacity::new(r(5, 4)).unwrap())
            .unwrap()
            .to_f64();
        let scales: Vec<f64> = system.scales().iter().map(Rational::to_f64).collect();
        let thresholds: Vec<f64> = system.thresholds().iter().map(Rational::to_f64).collect();
        let mut rng = StdRng::seed_from_u64(4);
        let trials = 200_000;
        let mut wins = 0u64;
        for _ in 0..trials {
            let (mut s0, mut s1) = (0.0, 0.0);
            for i in 0..3 {
                let x = rng.gen_range(0.0..scales[i]);
                if x <= thresholds[i] {
                    s0 += x;
                } else {
                    s1 += x;
                }
            }
            if s0 <= delta && s1 <= delta {
                wins += 1;
            }
        }
        let p_hat = wins as f64 / trials as f64;
        let se = (exact * (1.0 - exact) / trials as f64).sqrt();
        assert!(
            (p_hat - exact).abs() < 5.0 * se + 1e-3,
            "{p_hat} vs {exact}"
        );
    }
}
