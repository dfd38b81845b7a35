//! The [`Scalar`] field abstraction unifying the exact and floating
//! pipelines.
//!
//! Every closed form in the paper — inclusion–exclusion volumes
//! (Proposition 2.2), box-sum CDFs (Lemmas 2.4–2.7), winning
//! probabilities (Theorems 4.1/5.1) — is a polynomial identity over a
//! field, so it can be written *once*, generically over [`Scalar`],
//! and instantiated at [`Rational`] (bit-for-bit exact) or `f64`
//! (fast). The two instantiations are property-tested to agree within
//! `contracts::tolerances`, closing the drift risk that hand-copied
//! `*_f64` twins carried.
//!
//! # Examples
//!
//! ```
//! use rational::{Rational, Scalar};
//!
//! fn half_sum<S: Scalar>(values: &[S]) -> S {
//!     let mut acc = S::zero();
//!     for v in values {
//!         acc = acc + v.clone();
//!     }
//!     acc * S::from_ratio(1, 2)
//! }
//!
//! assert_eq!(half_sum(&[1.0f64, 2.0]), 1.5);
//! assert_eq!(
//!     half_sum(&[Rational::integer(1), Rational::integer(2)]),
//!     Rational::ratio(3, 2)
//! );
//! ```

use crate::ratio::Rational;
use std::fmt::Debug;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A field element the analytic core can compute over: exact
/// [`Rational`] or approximate `f64`.
///
/// Beyond the arithmetic operators, the trait embeds integers and
/// ratios (every constant in the paper's formulas is rational), tests
/// signs without subtraction, raises to small non-negative integer
/// powers, carries the instantiation-appropriate probability
/// contract ([`Scalar::ensure_probability`]) and, for rounding
/// instantiations, a clamp onto `[0, 1]` ([`Scalar::UNIT_CLAMP`]).
pub trait Scalar:
    Clone
    + Debug
    + PartialEq
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + Sized
{
    /// The additive identity.
    fn zero() -> Self;

    /// The multiplicative identity.
    fn one() -> Self;

    /// Embeds an integer exactly.
    fn from_int(value: i64) -> Self;

    /// Embeds the ratio `num / den`.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero, in *every* instantiation. (The `f64`
    /// instantiation used to return an infinity instead, which let the
    /// generic closed forms silently launder a division by zero into a
    /// float result that the exact pipeline would have refused.)
    fn from_ratio(num: i64, den: i64) -> Self;

    /// Converts from an exact rational (lossless for `Rational`,
    /// rounded for `f64`).
    fn from_rational(value: &Rational) -> Self;

    /// `true` iff `self` equals [`Scalar::zero`].
    fn is_zero(&self) -> bool;

    /// `true` iff `self` is strictly positive.
    fn is_positive(&self) -> bool;

    /// `true` iff `self` is strictly negative.
    fn is_negative(&self) -> bool;

    /// Raises to a non-negative integer power (`powi(0)` is one, even
    /// at zero, matching the empty-product convention the
    /// inclusion–exclusion sums rely on).
    #[must_use]
    fn powi(&self, exp: u32) -> Self;

    /// Contract hook: asserts `value` is a probability, with the
    /// tolerance appropriate for the instantiation — exact `[0, 1]`
    /// membership for `Rational`, `contracts::tolerances::PROB_EPS`
    /// slack for `f64`, enclosure-intersects-`[0, 1]` for
    /// [`crate::Ball`]. Debug-only by default, hard under
    /// `checked-invariants` (like every contract macro).
    fn ensure_probability(value: &Self);

    /// Keeps a value known to lie in `[0, 1]` inside it after
    /// rounding: `None` in exact instantiations (`Rational` never
    /// rounds), the intersection with `[0, 1]` in the rounding ones.
    ///
    /// Closed forms whose rounded evaluation would cancel digits read
    /// this constant to pick an algorithm at compile time: the
    /// Irwin–Hall CDF takes its `O(m)` alternating sum where it is
    /// `None`, and otherwise the positive B-spline recurrence with
    /// every step clamped (for [`crate::Ball`] that stops width
    /// growth from compounding).
    const UNIT_CLAMP: Option<fn(Self) -> Self>;
}

impl Scalar for Rational {
    const UNIT_CLAMP: Option<fn(Rational) -> Rational> = None;

    fn zero() -> Rational {
        Rational::zero()
    }

    fn one() -> Rational {
        Rational::one()
    }

    fn from_int(value: i64) -> Rational {
        Rational::integer(value)
    }

    fn from_ratio(num: i64, den: i64) -> Rational {
        Rational::ratio(num, den)
    }

    fn from_rational(value: &Rational) -> Rational {
        value.clone()
    }

    fn is_zero(&self) -> bool {
        Rational::is_zero(self)
    }

    fn is_positive(&self) -> bool {
        Rational::is_positive(self)
    }

    fn is_negative(&self) -> bool {
        Rational::is_negative(self)
    }

    fn powi(&self, exp: u32) -> Rational {
        self.pow(i32::try_from(exp).unwrap_or(i32::MAX))
    }

    fn ensure_probability(value: &Rational) {
        contracts::ensures_prob_exact!(*value, Rational::zero(), Rational::one());
    }
}

impl Scalar for f64 {
    const UNIT_CLAMP: Option<fn(f64) -> f64> = Some(|value| value.clamp(0.0, 1.0));

    fn zero() -> f64 {
        0.0
    }

    fn one() -> f64 {
        1.0
    }

    fn from_int(value: i64) -> f64 {
        value as f64
    }

    fn from_ratio(num: i64, den: i64) -> f64 {
        assert!(den != 0, "scalar from_ratio with zero denominator");
        num as f64 / den as f64
    }

    fn from_rational(value: &Rational) -> f64 {
        value.to_f64()
    }

    fn is_zero(&self) -> bool {
        *self == 0.0
    }

    fn is_positive(&self) -> bool {
        *self > 0.0
    }

    fn is_negative(&self) -> bool {
        *self < 0.0
    }

    fn powi(&self, exp: u32) -> f64 {
        f64::powi(*self, i32::try_from(exp).unwrap_or(i32::MAX))
    }

    fn ensure_probability(value: &f64) {
        contracts::ensures_prob!(*value, eps = contracts::tolerances::PROB_EPS);
    }
}

/// Computes `n!` as a scalar (exact for `Rational`, rounded for
/// `f64`), by repeated embedding-free multiplication so large
/// factorials stay finite in the float instantiation.
#[must_use]
pub fn factorial_in<S: Scalar>(n: u32) -> S {
    let mut acc = S::one();
    for k in 2..=n.max(1) {
        acc = acc * S::from_int(i64::from(k));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ball::Ball;
    use crate::combinatorics::factorial_rational;

    fn roundtrip<S: Scalar>() {
        assert_eq!(S::zero() + S::one(), S::one());
        assert_eq!(S::from_int(3) * S::from_int(4), S::from_int(12));
        assert_eq!(S::from_ratio(1, 2) + S::from_ratio(1, 2), S::one());
        assert_eq!(S::from_int(7) - S::from_int(7), S::zero());
        assert_eq!(S::from_int(9) / S::from_int(3), S::from_int(3));
        assert_eq!(-S::from_int(2), S::from_int(-2));
        assert!(S::zero().is_zero());
        assert!(S::one().is_positive());
        assert!(S::from_int(-1).is_negative());
        assert!(!S::from_int(-1).is_positive());
        assert_eq!(S::from_int(2).powi(10), S::from_int(1024));
        assert_eq!(S::zero().powi(0), S::one());
        assert!(S::from_ratio(1, 3) < S::from_ratio(1, 2));
        S::ensure_probability(&S::from_ratio(1, 2));
    }

    #[test]
    fn field_axioms_hold_for_all_instantiations() {
        roundtrip::<Rational>();
        roundtrip::<f64>();
        roundtrip::<Ball>();
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn float_from_ratio_panics_on_zero_denominator() {
        let _ = <f64 as Scalar>::from_ratio(1, 0);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn rational_from_ratio_panics_on_zero_denominator() {
        let _ = <Rational as Scalar>::from_ratio(1, 0);
    }

    #[test]
    fn from_rational_is_lossless_for_rational_and_rounds_for_f64() {
        let third = Rational::ratio(1, 3);
        assert_eq!(Rational::from_rational(&third), third);
        let as_float = f64::from_rational(&third);
        assert!((as_float - 1.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn generic_combinatorics_match_exact_helpers() {
        for n in 0u32..12 {
            assert_eq!(factorial_in::<Rational>(n), factorial_rational(n));
        }
    }

    #[test]
    fn float_factorial_is_close() {
        let exact = factorial_rational(20).to_f64();
        let float = factorial_in::<f64>(20);
        assert!((float / exact - 1.0).abs() < 1e-12);
    }
}
