//! An outward-rounded `f64` interval ("ball") instantiation of
//! [`Scalar`].
//!
//! A [`Ball`] `[lo, hi]` encloses an unknown real: every arithmetic
//! operation rounds its lower endpoint down and its upper endpoint up,
//! so the true value of any expression computed in balls is *proved*
//! to lie inside the resulting interval. This gives the analytic core
//! a third instantiation between the two existing ones — as fast as
//! `f64`, as trustworthy as [`Rational`] — and is what lets
//! `decision::certified` turn floating-point evaluations of the
//! paper's closed forms into machine-checked enclosures.
//!
//! Directed rounding is exact, not worst-case: sums and differences
//! use an error-free transformation (TwoSum) and products, quotients
//! and ratios use a fused multiply-add residual, so an endpoint is
//! only nudged by [`f64::next_down`]/[`f64::next_up`] when the `f64`
//! result actually differs from the real one. Exact operations —
//! `0.5 + 0.5`, `3 · 4`, `9 / 3` — therefore stay *points*, and the
//! field-axiom round-trip tests of [`crate::scalar`] hold verbatim.
//!
//! Comparison semantics are three-valued by nature: `partial_cmp`
//! returns `Less`/`Greater` only for *disjoint* intervals and `Equal`
//! only for structurally identical ones; overlapping distinct balls
//! compare as `None`. Generic code that branches on comparisons must
//! therefore treat a false/`None` comparison conservatively — the
//! workspace's closed forms do, because every conditional term they
//! guard vanishes exactly at the branch point.
//!
//! # Examples
//!
//! ```
//! use rational::{Ball, Scalar};
//!
//! let third = Ball::from_ratio(1, 3);
//! assert!(third.width() > 0.0); // 1/3 is not an f64: a true interval
//! assert!(third.contains(1.0 / 3.0));
//! let sum = third + third + third;
//! assert!(sum.contains(1.0)); // certified: 3 · (1/3) encloses 1
//! ```

use crate::ratio::Rational;
use crate::scalar::Scalar;
use std::cmp::Ordering;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// Largest integer magnitude exactly representable in an `f64`.
const EXACT_INT: i64 = 1 << 53;

/// A closed `f64` interval `[lo, hi]` with outward-rounded arithmetic.
///
/// Invariants (maintained by every constructor and operation):
/// `lo <= hi`, and neither endpoint is NaN — an undefined endpoint is
/// canonicalized to the matching infinity, so a ball never lies, it
/// only widens.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ball {
    lo: f64,
    hi: f64,
}

/// Error-free sum: returns `(s, e)` with `s = fl(a + b)` and
/// `s + e` equal to the real `a + b` exactly (Knuth's TwoSum).
/// `e` is NaN when an infinity or overflow is involved.
#[inline]
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    let e = (a - (s - bb)) + (b - bb);
    (s, e)
}

/// `fl(a + b)` rounded toward `-∞` (exactly: no step when the float
/// sum is already the real one or errs low).
#[inline]
fn add_down(a: f64, b: f64) -> f64 {
    let (s, e) = two_sum(a, b);
    if s.is_nan() {
        return f64::NEG_INFINITY;
    }
    // e < 0 means the rounded sum overshot the real one; e is NaN on
    // overflow/infinity, where stepping down to MAX/−∞ stays sound.
    if e >= 0.0 {
        s
    } else {
        s.next_down()
    }
}

/// `fl(a + b)` rounded toward `+∞`.
#[inline]
fn add_up(a: f64, b: f64) -> f64 {
    let (s, e) = two_sum(a, b);
    if s.is_nan() {
        return f64::INFINITY;
    }
    if e <= 0.0 {
        s
    } else {
        s.next_up()
    }
}

/// `fl(a · b)` rounded toward `-∞`, with the residual recovered by a
/// fused multiply-add. The FMA residual is exact only outside the
/// subnormal range, so underflowed products are stepped
/// unconditionally (correct rounding bounds the true product within
/// half an ulp, which one step always covers).
#[inline]
fn mul_down(a: f64, b: f64) -> f64 {
    let p = a * b;
    if p.is_nan() {
        return f64::NEG_INFINITY;
    }
    if a == 0.0 || b == 0.0 {
        return p; // exactly ±0
    }
    if p.abs() < f64::MIN_POSITIVE {
        return p.next_down();
    }
    let e = a.mul_add(b, -p);
    if e >= 0.0 {
        p
    } else {
        p.next_down()
    }
}

/// `fl(a · b)` rounded toward `+∞`.
#[inline]
fn mul_up(a: f64, b: f64) -> f64 {
    let p = a * b;
    if p.is_nan() {
        return f64::INFINITY;
    }
    if a == 0.0 || b == 0.0 {
        return p;
    }
    if p.abs() < f64::MIN_POSITIVE {
        return p.next_up();
    }
    let e = a.mul_add(b, -p);
    if e <= 0.0 {
        p
    } else {
        p.next_up()
    }
}

/// `fl(num / den)` rounded toward `-∞`: the division residual
/// `num − q·den` (exact by FMA outside the subnormal range) gives the
/// true quotient's side; underflowed quotients step unconditionally.
#[inline]
fn div_down(num: f64, den: f64) -> f64 {
    let q = num / den;
    if q.is_nan() {
        return f64::NEG_INFINITY;
    }
    if num == 0.0 {
        return q; // exactly ±0
    }
    if q.abs() < f64::MIN_POSITIVE {
        return q.next_down();
    }
    let r = (-q).mul_add(den, num);
    let true_at_least_q = if den > 0.0 { r >= 0.0 } else { r <= 0.0 };
    if true_at_least_q {
        q
    } else {
        q.next_down()
    }
}

/// `fl(num / den)` rounded toward `+∞`.
#[inline]
fn div_up(num: f64, den: f64) -> f64 {
    let q = num / den;
    if q.is_nan() {
        return f64::INFINITY;
    }
    if num == 0.0 {
        return q;
    }
    if q.abs() < f64::MIN_POSITIVE {
        return q.next_up();
    }
    let r = (-q).mul_add(den, num);
    let true_at_most_q = if den > 0.0 { r <= 0.0 } else { r >= 0.0 };
    if true_at_most_q {
        q
    } else {
        q.next_up()
    }
}

impl Ball {
    /// The whole extended real line `[-∞, +∞]`: the sound answer when
    /// nothing tighter can be said.
    pub const ENTIRE: Ball = Ball {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// Constructs `[lo, hi]`, canonicalizing: a NaN endpoint widens to
    /// the matching infinity and reversed endpoints are swapped.
    #[must_use]
    pub fn new(lo: f64, hi: f64) -> Ball {
        let lo = if lo.is_nan() { f64::NEG_INFINITY } else { lo };
        let hi = if hi.is_nan() { f64::INFINITY } else { hi };
        if lo <= hi {
            Ball { lo, hi }
        } else {
            Ball { lo: hi, hi: lo }
        }
    }

    /// The degenerate interval `[value, value]` (NaN widens to
    /// [`Ball::ENTIRE`]).
    #[must_use]
    pub fn point(value: f64) -> Ball {
        Ball::new(value, value)
    }

    /// Lower endpoint.
    #[must_use]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper endpoint.
    #[must_use]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Interval width `hi − lo`, rounded up (an upper bound on the
    /// enclosure's uncertainty).
    #[must_use]
    pub fn width(&self) -> f64 {
        add_up(self.hi, -self.lo)
    }

    /// An `f64` representative: the midpoint, clamped into the
    /// interval (so it is always a member, even for half-infinite
    /// balls).
    #[must_use]
    pub fn midpoint(&self) -> f64 {
        let mid = 0.5 * (self.lo + self.hi);
        if mid.is_finite() {
            mid.clamp(self.lo, self.hi)
        } else if self.lo.is_finite() {
            self.lo
        } else {
            self.hi
        }
    }

    /// `true` iff the real `x` lies in the enclosure.
    #[must_use]
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// `true` iff every member of `other` is a member of `self`.
    #[must_use]
    pub fn encloses(&self, other: &Ball) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// The smallest interval containing both operands.
    #[must_use]
    pub fn hull(&self, other: &Ball) -> Ball {
        Ball {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Intersects an enclosure of a value known to lie in `[0, 1]`
    /// with `[0, 1]`: sound, and it stops width growth from
    /// compounding. A ball missing `[0, 1]` (an out-of-contract value)
    /// passes through unchanged rather than being fabricated.
    #[must_use]
    pub fn clamp_unit(self) -> Ball {
        if self.hi < 0.0 || self.lo > 1.0 {
            return self;
        }
        Ball::new(self.lo.max(0.0), self.hi.min(1.0))
    }

    /// `true` iff both endpoints are finite.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }

    /// Exact embedding of an `i64` (a 1-ulp bracket beyond ±2⁵³).
    #[must_use]
    pub fn from_i64(value: i64) -> Ball {
        let f = value as f64;
        if (-EXACT_INT..=EXACT_INT).contains(&value) {
            Ball { lo: f, hi: f }
        } else {
            Ball {
                lo: f.next_down(),
                hi: f.next_up(),
            }
        }
    }

    /// Rigorous enclosure of the ratio `num / den`: a point when the
    /// quotient is an exact `f64`, a 1-ulp interval otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero (the [`Scalar::from_ratio`] contract,
    /// shared by every instantiation).
    #[must_use]
    pub fn from_ratio(num: i64, den: i64) -> Ball {
        assert!(den != 0, "ball from_ratio with zero denominator");
        Ball::from_i64(num) / Ball::from_i64(den)
    }

    /// The tightest `f64` bound on `value` from `candidate` in the
    /// direction `down`, verified by exact rational comparison (sound
    /// even if the starting approximation is several ulps off).
    fn rational_bound(value: &Rational, start: f64, down: bool) -> f64 {
        let far = if down {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        };
        if start.is_nan() {
            return far;
        }
        let mut candidate = start;
        for _ in 0..8 {
            let bounds = match Rational::from_f64_exact(candidate) {
                Some(r) => {
                    if down {
                        r <= *value
                    } else {
                        r >= *value
                    }
                }
                // Infinite candidate: only the far infinity bounds.
                None => candidate == far,
            };
            if bounds {
                return candidate;
            }
            candidate = if down {
                candidate.next_down()
            } else {
                candidate.next_up()
            };
        }
        far
    }
}

impl Add for Ball {
    type Output = Ball;

    #[inline]
    fn add(self, rhs: Ball) -> Ball {
        Ball {
            lo: add_down(self.lo, rhs.lo),
            hi: add_up(self.hi, rhs.hi),
        }
    }
}

impl Sub for Ball {
    type Output = Ball;

    #[inline]
    fn sub(self, rhs: Ball) -> Ball {
        Ball {
            lo: add_down(self.lo, -rhs.hi),
            hi: add_up(self.hi, -rhs.lo),
        }
    }
}

impl Mul for Ball {
    type Output = Ball;

    #[inline]
    fn mul(self, rhs: Ball) -> Ball {
        let lo = mul_down(self.lo, rhs.lo)
            .min(mul_down(self.lo, rhs.hi))
            .min(mul_down(self.hi, rhs.lo))
            .min(mul_down(self.hi, rhs.hi));
        let hi = mul_up(self.lo, rhs.lo)
            .max(mul_up(self.lo, rhs.hi))
            .max(mul_up(self.hi, rhs.lo))
            .max(mul_up(self.hi, rhs.hi));
        Ball { lo, hi }
    }
}

impl Div for Ball {
    type Output = Ball;

    #[inline]
    fn div(self, rhs: Ball) -> Ball {
        // A denominator that may be zero makes the quotient unbounded.
        if rhs.lo <= 0.0 && rhs.hi >= 0.0 {
            return Ball::ENTIRE;
        }
        let lo = div_down(self.lo, rhs.lo)
            .min(div_down(self.lo, rhs.hi))
            .min(div_down(self.hi, rhs.lo))
            .min(div_down(self.hi, rhs.hi));
        let hi = div_up(self.lo, rhs.lo)
            .max(div_up(self.lo, rhs.hi))
            .max(div_up(self.hi, rhs.lo))
            .max(div_up(self.hi, rhs.hi));
        Ball { lo, hi }
    }
}

impl Neg for Ball {
    type Output = Ball;

    #[inline]
    fn neg(self) -> Ball {
        Ball {
            lo: -self.hi,
            hi: -self.lo,
        }
    }
}

impl PartialOrd for Ball {
    /// Three-valued interval order: `Equal` for structurally identical
    /// balls, `Less`/`Greater` for disjoint ones, `None` otherwise.
    #[inline]
    fn partial_cmp(&self, other: &Ball) -> Option<Ordering> {
        if self == other {
            return Some(Ordering::Equal);
        }
        if self.hi < other.lo {
            return Some(Ordering::Less);
        }
        if self.lo > other.hi {
            return Some(Ordering::Greater);
        }
        None
    }
}

impl Scalar for Ball {
    const UNIT_CLAMP: Option<fn(Ball) -> Ball> = Some(Ball::clamp_unit);

    fn zero() -> Ball {
        Ball { lo: 0.0, hi: 0.0 }
    }

    fn one() -> Ball {
        Ball { lo: 1.0, hi: 1.0 }
    }

    fn from_int(value: i64) -> Ball {
        Ball::from_i64(value)
    }

    fn from_ratio(num: i64, den: i64) -> Ball {
        Ball::from_ratio(num, den)
    }

    fn from_rational(value: &Rational) -> Ball {
        let f = value.to_f64();
        Ball::new(
            Ball::rational_bound(value, f, true),
            Ball::rational_bound(value, f, false),
        )
    }

    fn is_zero(&self) -> bool {
        self.lo == 0.0 && self.hi == 0.0
    }

    /// Certainly positive: the whole enclosure is above zero.
    fn is_positive(&self) -> bool {
        self.lo > 0.0
    }

    /// Certainly negative: the whole enclosure is below zero.
    fn is_negative(&self) -> bool {
        self.hi < 0.0
    }

    fn powi(&self, exp: u32) -> Ball {
        let mut acc = Ball::one();
        for _ in 0..exp {
            acc = acc * *self;
        }
        acc
    }

    /// A ball is an acceptable probability when its enclosure
    /// intersects `[0, 1]` (widened by the float tolerance): the
    /// *true* value it encloses could then be a probability. A
    /// finiteness requirement would be wrong here — an over-wide but
    /// honest enclosure is sound, just useless.
    fn ensure_probability(value: &Ball) {
        contracts::invariant!(
            value.hi >= -contracts::tolerances::PROB_EPS
                && value.lo <= 1.0 + contracts::tolerances::PROB_EPS,
            "ball enclosure excludes [0, 1]: {value:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_operations_stay_points() {
        assert_eq!(Ball::from_ratio(1, 2) + Ball::from_ratio(1, 2), Ball::one());
        assert_eq!(Ball::from_i64(3) * Ball::from_i64(4), Ball::from_i64(12));
        assert_eq!(Ball::from_i64(9) / Ball::from_i64(3), Ball::from_i64(3));
        assert_eq!(Ball::from_i64(7) - Ball::from_i64(7), Ball::zero());
        assert_eq!(Ball::from_i64(2).powi(10), Ball::from_i64(1024));
    }

    #[test]
    fn inexact_operations_widen_outward() {
        let third = Ball::from_ratio(1, 3);
        assert!(third.lo < third.hi);
        assert!(third.contains(1.0 / 3.0));
        // 0.1 + 0.2 is the classic inexact sum; 0.3 must be enclosed.
        let a = Ball::from_ratio(1, 10) + Ball::from_ratio(2, 10);
        assert!(a.contains(0.3));
        assert!(a.lo < a.hi);
        // Repeated thirds still certify the exact total.
        let mut acc = Ball::zero();
        for _ in 0..9 {
            acc = acc + third;
        }
        assert!(acc.contains(3.0));
        assert!(acc.width() < 1e-14);
    }

    #[test]
    fn ordering_is_three_valued() {
        let third = Ball::from_ratio(1, 3);
        let half = Ball::from_ratio(1, 2);
        assert!(third < half);
        assert!(half > third);
        // Overlapping distinct balls are unordered in every direction.
        let wide = Ball::new(0.0, 1.0);
        assert_eq!(wide.partial_cmp(&half), None);
        assert!(wide != half);
        // Structural equality is the only Equal.
        assert_eq!(
            wide.partial_cmp(&Ball::new(0.0, 1.0)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn signs_are_certain_only_when_disjoint_from_zero() {
        assert!(Ball::from_ratio(1, 3).is_positive());
        assert!(Ball::from_ratio(-1, 3).is_negative());
        let straddle = Ball::new(-1.0, 1.0);
        assert!(!straddle.is_positive());
        assert!(!straddle.is_negative());
        assert!(!straddle.is_zero());
        assert!(Ball::zero().is_zero());
    }

    #[test]
    fn division_by_a_zero_straddling_ball_is_entire() {
        let q = Ball::one() / Ball::new(-1.0, 1.0);
        assert_eq!(q, Ball::ENTIRE);
        let q0 = Ball::one() / Ball::zero();
        assert_eq!(q0, Ball::ENTIRE);
    }

    #[test]
    fn nan_endpoints_canonicalize_to_infinities() {
        let b = Ball::new(f64::NAN, 1.0);
        assert_eq!(b.lo(), f64::NEG_INFINITY);
        assert_eq!(b.hi(), 1.0);
        assert_eq!(Ball::point(f64::NAN), Ball::ENTIRE);
        // 0 · [−∞, ∞] stays sound (NaN products widen, never lie).
        let p = Ball::zero() * Ball::ENTIRE;
        assert!(p.contains(0.0));
    }

    #[test]
    fn from_rational_encloses_exactly() {
        for (n, d) in [(1i64, 3i64), (-7, 11), (22, 7), (1, 1), (0, 5)] {
            let r = Rational::ratio(n, d);
            let b = Ball::from_rational(&r);
            let down = Rational::from_f64_exact(b.lo()).unwrap();
            let up = Rational::from_f64_exact(b.hi()).unwrap();
            assert!(down <= r && r <= up, "{n}/{d}");
            assert!(b.width() < 1e-15, "{n}/{d}");
        }
    }

    #[test]
    fn huge_integers_bracket_within_one_ulp() {
        let v = i64::MAX - 1;
        let b = Ball::from_i64(v);
        assert!(b.lo() < b.hi());
        assert!(b.contains(v as f64));
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn from_ratio_zero_denominator_panics() {
        let _ = Ball::from_ratio(1, 0);
    }

    #[test]
    fn overflow_rounds_to_a_finite_sound_endpoint() {
        let big = Ball::point(f64::MAX);
        let sum = big + big;
        // The lower endpoint must stay a *finite* lower bound.
        assert_eq!(sum.lo(), f64::MAX);
        assert_eq!(sum.hi(), f64::INFINITY);
    }

    #[test]
    fn midpoint_is_always_a_member() {
        for b in [
            Ball::new(0.25, 0.75),
            Ball::new(f64::NEG_INFINITY, 2.0),
            Ball::new(3.0, f64::INFINITY),
            Ball::ENTIRE,
        ] {
            assert!(b.contains(b.midpoint()), "{b:?}");
        }
    }

    #[test]
    fn hull_and_enclosure() {
        let a = Ball::new(0.0, 0.5);
        let b = Ball::new(0.25, 1.0);
        let h = a.hull(&b);
        assert!(h.encloses(&a) && h.encloses(&b));
        assert_eq!(h, Ball::new(0.0, 1.0));
    }
}
