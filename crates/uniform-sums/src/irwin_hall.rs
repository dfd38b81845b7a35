//! Corollary 2.6: the Irwin–Hall distribution (sum of `m` standard
//! uniforms).

use rational::{factorial_in, Rational, Scalar};

/// Irwin–Hall CDF `P(Σ_{i=1}^m x_i ≤ t)` for `x_i ~ U[0,1]`
/// (Corollary 2.6), in any [`Scalar`] instantiation:
///
/// ```text
/// F_m(t) = (1/m!) Σ_{0 ≤ i ≤ m, i < t} (−1)^i C(m,i) (t − i)^m
/// ```
///
/// By convention `m = 0` is the empty sum, which is `0`, so
/// `F_0(t) = 1` for `t ≥ 0` — exactly the factor Theorem 4.1 needs
/// when all players choose the same bin.
///
/// This is the single implementation of the corollary;
/// [`irwin_hall_cdf`] and [`irwin_hall_cdf_f64`] are its two
/// instantiations, and [`crate::EvalContext`] adds memoization.
#[must_use]
pub fn irwin_hall_cdf_in<S: Scalar>(m: u32, t: &S) -> S {
    if m == 0 {
        return if t.is_negative() { S::zero() } else { S::one() };
    }
    if !t.is_positive() {
        return S::zero();
    }
    if *t >= S::from_int(i64::from(m)) {
        return S::one();
    }
    // Reflect the upper tail onto the lower one through the symmetry
    // F_m(t) = 1 − F_m(m − t): the alternating sum's condition number
    // explodes as t → m (≈ 4.5e12 at m = 30, t = 28), while below the
    // midpoint it stays small enough for compensated f64 summation.
    // (For instantiations where `>` is partial, like `rational::Ball`,
    // an incomparable t falls back to the direct sum — still correct.)
    let half = S::from_ratio(i64::from(m), 2);
    let value = if *t > half {
        let reflected = S::from_int(i64::from(m)) - t.clone();
        S::one() - signed_shift_sum(m, &reflected, m) / factorial_in::<S>(m)
    } else {
        signed_shift_sum(m, t, m) / factorial_in::<S>(m)
    };
    S::ensure_probability(&value);
    value
}

/// Irwin–Hall density (the `π_i = 1` case of Lemma 2.5), in any
/// [`Scalar`] instantiation. Zero outside `(0, m)`; right-continuous
/// at the knots.
#[must_use]
pub fn irwin_hall_pdf_in<S: Scalar>(m: u32, t: &S) -> S {
    if m == 0 || !t.is_positive() || *t >= S::from_int(i64::from(m)) {
        return S::zero();
    }
    // Same reflection as the CDF (the density is symmetric about m/2,
    // and continuous on (0, m) for every m, so f_m(t) = f_m(m − t)).
    let half = S::from_ratio(i64::from(m), 2);
    let arg = if *t > half {
        S::from_int(i64::from(m)) - t.clone()
    } else {
        t.clone()
    };
    signed_shift_sum(m, &arg, m - 1) / factorial_in::<S>(m - 1)
}

/// The alternating sum `Σ_{0 ≤ i ≤ m, i < t} (−1)^i C(m,i) (t − i)^power`
/// shared by the CDF (`power = m`) and the density (`power = m − 1`),
/// with the binomial coefficient maintained by the running update
/// `C(m, i+1) = C(m, i) · (m − i)/(i + 1)` (exact in every field).
///
/// Terms are folded through [`Scalar::accumulate`], so the `f64`
/// instantiation gets Neumaier-compensated summation — together with
/// the callers' midpoint reflection this keeps the cancellation error
/// inside `contracts::tolerances::PROB_EPS` up to `m = 39`
/// (`<f64 as Scalar>::MAX_IRWIN_HALL_ORDER`).
fn signed_shift_sum<S: Scalar>(m: u32, t: &S, power: u32) -> S {
    let mut acc = S::zero();
    let mut carry = S::zero();
    let mut binom = S::one();
    for i in 0..=m {
        let shift = S::from_int(i64::from(i));
        if shift >= *t {
            break;
        }
        let term = binom.clone() * (t.clone() - shift).powi(power);
        let signed = if i % 2 == 0 { term } else { -term };
        acc = S::accumulate(acc, signed, &mut carry);
        if i < m {
            binom = binom * S::from_ratio(i64::from(m - i), i64::from(i + 1));
        }
    }
    acc + carry
}

/// Exact Irwin–Hall CDF: the [`Rational`] instantiation of
/// [`irwin_hall_cdf_in`].
///
/// # Examples
///
/// ```
/// use rational::Rational;
/// use uniform_sums::irwin_hall_cdf;
///
/// assert_eq!(irwin_hall_cdf(2, &Rational::one()), Rational::ratio(1, 2));
/// assert_eq!(irwin_hall_cdf(3, &Rational::ratio(3, 2)), Rational::ratio(1, 2));
/// assert_eq!(irwin_hall_cdf(0, &Rational::one()), Rational::one());
/// ```
#[must_use]
pub fn irwin_hall_cdf(m: u32, t: &Rational) -> Rational {
    irwin_hall_cdf_in(m, t)
}

/// Exact Irwin–Hall density: the [`Rational`] instantiation of
/// [`irwin_hall_pdf_in`].
///
/// ```
/// use rational::Rational;
/// use uniform_sums::irwin_hall_pdf;
///
/// // Tent density of two uniforms peaks at 1 with value 1.
/// assert_eq!(irwin_hall_pdf(2, &Rational::one()), Rational::one());
/// assert_eq!(irwin_hall_pdf(2, &Rational::ratio(1, 2)), Rational::ratio(1, 2));
/// ```
#[must_use]
pub fn irwin_hall_pdf(m: u32, t: &Rational) -> Rational {
    irwin_hall_pdf_in(m, t)
}

/// Fast Irwin–Hall CDF: the `f64` instantiation of [`irwin_hall_cdf_in`].
#[must_use]
// xtask:allow(no-twin-f64): instantiation wrapper over the generic core
pub fn irwin_hall_cdf_f64(m: u32, t: f64) -> f64 {
    irwin_hall_cdf_in(m, &t)
}

/// Fast Irwin–Hall density: the `f64` instantiation of [`irwin_hall_pdf_in`].
#[must_use]
// xtask:allow(no-twin-f64): instantiation wrapper over the generic core
pub fn irwin_hall_pdf_f64(m: u32, t: f64) -> f64 {
    irwin_hall_pdf_in(m, &t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BoxSum;

    fn r(n: i64, d: i64) -> Rational {
        Rational::ratio(n, d)
    }

    #[test]
    fn matches_box_sum_special_case() {
        for m in 1..=6u32 {
            let s = BoxSum::new(vec![Rational::one(); m as usize]).unwrap();
            for k in 0..=(4 * m) {
                let t = r(i64::from(k), 4);
                assert_eq!(irwin_hall_cdf(m, &t), s.cdf(&t), "m={m}, t={t}");
                assert_eq!(irwin_hall_pdf(m, &t), s.pdf(&t), "m={m}, t={t}");
            }
        }
    }

    #[test]
    fn known_values() {
        // F_1 is the identity on [0,1].
        assert_eq!(irwin_hall_cdf(1, &r(3, 10)), r(3, 10));
        // F_2(t) = t^2/2 on [0,1].
        assert_eq!(irwin_hall_cdf(2, &r(1, 2)), r(1, 8));
        // F_2(t) = 1 - (2-t)^2/2 on [1,2].
        assert_eq!(irwin_hall_cdf(2, &r(3, 2)), r(7, 8));
        // F_3(3/2) = 1/2 by symmetry.
        assert_eq!(irwin_hall_cdf(3, &r(3, 2)), r(1, 2));
    }

    #[test]
    fn symmetry_about_half_m() {
        for m in 1..=7u32 {
            for k in 0..=8 {
                let d = r(k, 5);
                let mid = r(i64::from(m), 2);
                let lo = irwin_hall_cdf(m, &(&mid - &d));
                let hi = irwin_hall_cdf(m, &(&mid + &d));
                assert_eq!(lo + hi, Rational::one(), "m={m}, d={d}");
            }
        }
    }

    #[test]
    fn zero_summands_edge_case() {
        assert_eq!(irwin_hall_cdf(0, &Rational::zero()), Rational::one());
        assert_eq!(irwin_hall_cdf(0, &r(-1, 2)), Rational::zero());
        assert_eq!(irwin_hall_pdf(0, &r(1, 2)), Rational::zero());
        assert_eq!(irwin_hall_cdf_f64(0, 1.0), 1.0);
    }

    #[test]
    fn large_m_upper_tail_stays_within_tolerance() {
        // Regression: the naive alternating sum at m = 30, t = 28 has
        // condition number ≈ 4.5e12 and used to lose ~1e-4 absolute —
        // five orders of magnitude outside PROB_EPS. Reflection plus
        // compensated accumulation brings it back under the contract.
        let exact = irwin_hall_cdf(30, &Rational::integer(28)).to_f64();
        let float = irwin_hall_cdf_f64(30, 28.0);
        assert!(
            (float - exact).abs() < contracts::tolerances::PROB_EPS,
            "m=30, t=28: float {float} vs exact {exact}"
        );
    }

    #[test]
    fn float_cdf_tracks_exact_up_to_m_32() {
        for m in [16u32, 24, 30, 32] {
            for k in 0..=16 {
                let t = r(i64::from(m) * i64::from(k), 16);
                let exact = irwin_hall_cdf(m, &t).to_f64();
                let float = irwin_hall_cdf_f64(m, t.to_f64());
                assert!(
                    (float - exact).abs() < contracts::tolerances::PROB_EPS,
                    "m={m}, t={t}: float {float} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn float_cdf_stays_within_tolerance_at_its_order_limit() {
        // `<f64 as Scalar>::MAX_IRWIN_HALL_ORDER` is the largest order
        // whose worst cancellation error stays within PROB_EPS. The
        // worst points sit just below t = m/2; the grid is not dyadic,
        // because dyadic points make the power terms nearly exact and
        // hide the error.
        let m = <f64 as Scalar>::MAX_IRWIN_HALL_ORDER;
        let half = f64::from(m) / 2.0;
        for j in 0..=48 {
            let t = half - f64::from(j) / 97.0;
            let exact = irwin_hall_cdf(m, &Rational::from_f64_exact(t).unwrap()).to_f64();
            let float = irwin_hall_cdf_f64(m, t);
            assert!(
                (float - exact).abs() <= contracts::tolerances::PROB_EPS,
                "m={m}, t={t}: float {float} vs exact {exact}"
            );
        }
    }

    #[test]
    fn density_integrates_to_one_numerically() {
        for m in 1..=5u32 {
            let steps = 2_000;
            let h = f64::from(m) / steps as f64;
            let mut integral = 0.0;
            for i in 0..steps {
                let t = (i as f64 + 0.5) * h;
                integral += irwin_hall_pdf_f64(m, t) * h;
            }
            assert!((integral - 1.0).abs() < 1e-3, "m={m}: {integral}");
        }
    }
}
