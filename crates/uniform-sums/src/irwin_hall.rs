//! Corollary 2.6: the Irwin–Hall distribution (sum of `m` standard
//! uniforms).
//!
//! The scalar type picks the evaluator at compile time
//! ([`Scalar::UNIT_CLAMP`]). Exact [`Rational`] sums the corollary's
//! alternating closed form: `O(m)` terms, and cancellation costs
//! nothing when nothing rounds. The rounding `f64` and
//! `rational::Ball` run the positive Cox–de Boor recurrence for the
//! cardinal B-spline `N_m`, the Irwin–Hall density (de Boor, *On
//! calculating with B-splines*, 1972):
//!
//! ```text
//! N_k(u) = ( u · N_{k−1}(u) + (k − u) · N_{k−1}(u − 1) ) / (k − 1),
//! F_m(t) = Σ_{j ≥ 0} N_{m+1}(t − j).
//! ```
//!
//! It never subtracts: its `f64` error stays at a few ulps up to
//! `m = 128` (`examples/irwin_hall_accuracy.rs`), where the
//! alternating sum left `contracts::tolerances::PROB_EPS` at `m = 40`.

use rational::{factorial_in, Rational, Scalar};

/// Past this argument every order is saturated (`F_m(t) = 1`) and an
/// `f64` argument is an integer, so no triangle is run.
const SATURATED: i64 = 1 << 52;

/// Irwin–Hall values of every order `m = 0..=n` at one argument `t`.
#[derive(Clone, Debug, PartialEq)]
pub struct IrwinHallRow<S> {
    /// `cdf[m] = F_m(t)`; `F_0` is the step `[t ≥ 0]`.
    pub cdf: Vec<S>,
    /// `pdf[m] = f_m(t) = N_m(t)`, right-continuous; `pdf[0] = 0`.
    pub pdf: Vec<S>,
    /// `dpdf[m] = f_m'(t) = N_{m−1}(t) − N_{m−1}(t − 1)` for `m ≥ 2`
    /// (the right limit at a knot); `dpdf[0] = dpdf[1] = 0`.
    pub dpdf: Vec<S>,
}

/// The Irwin–Hall CDF, density and density derivative of every order
/// `0..=n` at `t`, from one B-spline triangle (exact in [`Rational`]).
///
/// Only shifts `j` with `t − j < n + 1` are kept, so a row costs
/// `O(n · min(t + 1, n + 1))`, and a larger row's `F_m(t)` is
/// bit-identical to a smaller one's. In `rational::Ball` the CDF and
/// order ≥ 2 density entries enclose their functions over the whole
/// argument, across knots too; the steps `f_1` and `f_2'` do not.
///
/// ```
/// use rational::Rational;
/// use uniform_sums::{irwin_hall_cdf, irwin_hall_row};
///
/// let t = Rational::ratio(7, 4);
/// assert_eq!(irwin_hall_row(4, &t).cdf[4], irwin_hall_cdf(4, &t));
/// assert!((irwin_hall_row(3, &1.5f64).cdf[3] - 0.5).abs() < 1e-15);
/// ```
#[must_use]
pub fn irwin_hall_row<S: Scalar>(n: u32, t: &S) -> IrwinHallRow<S> {
    let n = n as usize;
    let mut out = IrwinHallRow {
        cdf: vec![S::zero(); n + 1],
        pdf: vec![S::zero(); n + 1],
        dpdf: vec![S::zero(); n + 1],
    };
    if t.is_negative() {
        return out;
    }
    // Order 1, a step, gives F_0, f_1 and f_2'.
    out.cdf[0] = S::one();
    if n >= 1 {
        out.pdf[1] = step(t);
    }
    if n >= 2 {
        out.dpdf[2] = step(t) - step(&(t.clone() - S::one()));
    }
    let ran = triangle(n + 1, t, |ord, row, at_origin| {
        if ord <= n && at_origin {
            out.pdf[ord] = clamp(row[0].clone());
            if ord < n {
                // f_{ord+1}' is the backward difference of order ord.
                let shifted = row.get(1).cloned().unwrap_or_else(S::zero);
                out.dpdf[ord + 1] = row[0].clone() - shifted;
            }
        }
        out.cdf[ord - 1] = clamp(sum(row));
    });
    if !ran {
        out.cdf.fill(S::one());
    }
    out
}

/// Runs the B-spline triangle at `t ≥ 0` up to order `top`: for each
/// order `ord = 2..=top`, `visit(ord, row, at_origin)` sees the
/// clamped `row[i] = N_ord(t − first − i)` over the shifts with
/// `t − j < top`, where `at_origin` says `first = 0`. Returns `false`,
/// visiting nothing, when `t` is saturated.
fn triangle<S: Scalar>(top: usize, t: &S, mut visit: impl FnMut(usize, &[S], bool)) -> bool {
    let Some(last) = top_shift(t) else {
        return false;
    };
    let first = last.saturating_sub(top - 1);
    let u: Vec<S> = (first..=last)
        .map(|j| t.clone() - S::from_int(j as i64))
        .collect();
    // Order 2 is the tent; each later order overwrites the row in
    // place, ascending, so `row[i + 1]` still holds the lower order.
    let mut row: Vec<S> = u.iter().map(|u| clamp(tent(u))).collect();
    for ord in 2..=top {
        if ord > 2 {
            let (ord_s, norm) = (S::from_int(ord as i64), S::from_int(ord as i64 - 1));
            for i in 0..row.len() {
                let right = row.get(i + 1).cloned().unwrap_or_else(S::zero);
                let (u, left) = (u[i].clone(), row[i].clone());
                row[i] = clamp((u.clone() * left + (ord_s.clone() - u) * right) / norm.clone());
            }
        }
        visit(ord, &row, first == 0);
    }
    true
}

/// The instantiation's [`Scalar::UNIT_CLAMP`], or nothing.
fn clamp<S: Scalar>(value: S) -> S {
    match S::UNIT_CLAMP {
        Some(clamp) => clamp(value),
        None => value,
    }
}

/// The order-1 B-spline, the step `[0 ≤ u < 1]`.
fn step<S: Scalar>(u: &S) -> S {
    if *u >= S::zero() && *u < S::one() {
        S::one()
    } else {
        S::zero()
    }
}

/// The order-2 B-spline, the tent on `[0, 2]`, enclosed over an
/// interval argument once clamped: an undecided knot at 0 or 2 takes
/// the piece vanishing there, the peak `1 + (u − u)` = `[1 ± width]`.
fn tent<S: Scalar>(u: &S) -> S {
    let two = S::from_int(2);
    if *u < S::zero() || *u >= two {
        S::zero()
    } else if *u < S::one() {
        u.clone()
    } else if *u >= S::one() {
        two - u.clone()
    } else {
        S::one() + (u.clone() - u.clone())
    }
}

/// The largest shift `j` whose knot may lie at or below `t`: `⌊t⌋`,
/// plus one when an interval argument straddles the next integer, by
/// galloping comparisons (`O(log t)`); `None` from [`SATURATED`] on.
fn top_shift<S: Scalar>(t: &S) -> Option<usize> {
    let reaches = |j: i64| S::from_int(j) <= *t;
    let mut above = 1i64;
    while reaches(above) {
        if above == SATURATED {
            return None;
        }
        above *= 2;
    }
    let mut below = above / 2;
    while above - below > 1 {
        let mid = below + (above - below) / 2;
        if reaches(mid) {
            below = mid;
        } else {
            above = mid;
        }
    }
    if S::from_int(below + 1).partial_cmp(t) != Some(std::cmp::Ordering::Greater) {
        below += 1;
    }
    usize::try_from(below).ok()
}

/// Left-to-right sum of a row.
fn sum<S: Scalar>(row: &[S]) -> S {
    row.iter().fold(S::zero(), |acc, v| acc + v.clone())
}

/// `[F_0(t), …, F_n(t)]`: the alternating closed form per order in
/// exact instantiations, one [`irwin_hall_row`] otherwise.
#[must_use]
pub fn irwin_hall_cdf_row<S: Scalar>(n: u32, t: &S) -> Vec<S> {
    if S::UNIT_CLAMP.is_none() {
        (0..=n).map(|m| irwin_hall_cdf_in(m, t)).collect()
    } else {
        irwin_hall_row(n, t).cdf
    }
}

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
/// Exact instantiations evaluate the sum above, rounding ones one
/// [`irwin_hall_row`]; [`irwin_hall_cdf`] and [`irwin_hall_cdf_f64`]
/// instantiate it, and [`crate::EvalContext`] adds memoization.
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
    let value = if S::UNIT_CLAMP.is_none() {
        alternating_sum(m, t, m) / factorial_in::<S>(m)
    } else {
        // 0 < t < m: the triangle runs, and its last order is F_m's.
        let (top, mut value) = (m as usize + 1, S::zero());
        triangle(top, t, |ord, row, _| {
            if ord == top {
                value = clamp(sum(row));
            }
        });
        value
    };
    S::ensure_probability(&value);
    value
}

/// Irwin–Hall density (the `π_i = 1` case of Lemma 2.5), in any
/// [`Scalar`] instantiation. Zero outside `(0, m)`; right-continuous
/// at the interior knots.
#[must_use]
pub fn irwin_hall_pdf_in<S: Scalar>(m: u32, t: &S) -> S {
    if m == 0 || !t.is_positive() || *t >= S::from_int(i64::from(m)) {
        return S::zero();
    }
    if S::UNIT_CLAMP.is_none() {
        alternating_sum(m, t, m - 1) / factorial_in::<S>(m - 1)
    } else {
        irwin_hall_row(m, t).pdf.swap_remove(m as usize)
    }
}

/// `Σ_{0 ≤ i ≤ m, i < t} (−1)^i C(m,i) (t − i)^power`, the exact CDF's
/// (`power = m`) and density's (`power = m − 1`) alternating sum.
fn alternating_sum<S: Scalar>(m: u32, t: &S, power: u32) -> S {
    let mut acc = S::zero();
    let mut binom = S::one();
    for i in 0..=m {
        let shift = S::from_int(i64::from(i));
        if shift >= *t {
            break;
        }
        let term = binom.clone() * (t.clone() - shift).powi(power);
        acc = if i % 2 == 0 { acc + term } else { acc - term };
        if i < m {
            binom = binom * S::from_ratio(i64::from(m - i), i64::from(i + 1));
        }
    }
    acc
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
        // five orders of magnitude outside PROB_EPS. The positive
        // recurrence has no cancellation to lose it to.
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
    fn float_cdf_stays_within_tolerance_up_to_order_128() {
        // The alternating sum's worst cancellation sat just below
        // t = m/2 and left PROB_EPS at m = 40. The grid is not dyadic,
        // because dyadic points make power terms nearly exact and hide
        // rounding error; the exact value is taken at the float's own
        // value.
        for m in [39u32, 64, 128] {
            let half = f64::from(m) / 2.0;
            for j in 0..=24 {
                let t = half - f64::from(j) / 97.0;
                let exact = exact_cdf_at(m, t);
                let float = irwin_hall_cdf_f64(m, t);
                assert!(
                    (float - exact).abs() <= contracts::tolerances::PROB_EPS,
                    "m={m}, t={t}: float {float} vs exact {exact}"
                );
            }
        }
    }

    /// Exact `F_m(t)` at the float `t = N / D` (`D` a power of two),
    /// rounded once: Corollary 2.6's numerator summed in integers,
    /// `Σ_{i < t} (−1)^i C(m, i) (N − iD)^m`, over `m! D^m` — far
    /// cheaper at m = 128 than summing reduced rationals.
    fn exact_cdf_at(m: u32, t: f64) -> f64 {
        use bigint::BigInt;
        let t = Rational::from_f64_exact(t).unwrap();
        let (num, den) = (t.numer(), t.denom());
        let mut sum = BigInt::from(0);
        let mut binom = BigInt::from(1);
        let mut shift = BigInt::from(0);
        for i in 0..=m {
            if &shift >= num {
                break;
            }
            let term = &binom * &(num - &shift).pow(m);
            sum = if i % 2 == 0 {
                &sum + &term
            } else {
                &sum - &term
            };
            binom = &(&binom * &BigInt::from(m - i)) / &BigInt::from(i + 1);
            shift = &shift + den;
        }
        let factorial: BigInt = (1..=m).map(BigInt::from).product();
        Rational::new(sum, &factorial * &den.pow(m)).to_f64()
    }

    #[test]
    fn row_matches_exact_values_at_knots_and_edges() {
        // Knots from both sides, the t ≤ 0 edge and saturation t ≥ m.
        let mut points = vec![
            r(-1, 1),
            r(-1, 3),
            Rational::zero(),
            r(13, 2),
            r(1_000_000, 1),
        ];
        for k in 0..=13 {
            for off in [0, -1, 1] {
                let t = r(1024 * k + off, 1024);
                if !t.is_negative() {
                    points.push(t);
                }
            }
        }
        for m in 0..=12u32 {
            for t in &points {
                let exact = irwin_hall_row(m, t);
                let float = irwin_hall_row(m, &t.to_f64());
                for k in 0..=m as usize {
                    let cdf = irwin_hall_cdf(k as u32, t);
                    assert_eq!(exact.cdf[k], cdf, "F_{k}({t}) in an order-{m} row");
                    let f = float.cdf[k];
                    assert!((f - cdf.to_f64()).abs() < 1e-14, "F_{k}({t}) = {f}");
                    if t.is_positive() {
                        let pdf = irwin_hall_pdf(k as u32, t);
                        assert_eq!(exact.pdf[k], pdf, "f_{k}({t}) in an order-{m} row");
                        let f = float.pdf[k];
                        assert!((f - pdf.to_f64()).abs() < 1e-14, "f_{k}({t}) = {f}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_larger_row_extends_a_smaller_one_bit_for_bit() {
        // The context serves a cached n-row's prefix for a smaller
        // order, so both must run the same float program — also where
        // t ≥ m saturates some orders and past the row's own order.
        for t in [0.0, 0.3, 1.0, 2.5, 3.7, 9.25, 40.1, 127.9, 300.5, 1e9 + 0.5] {
            let big = irwin_hall_row(128, &t);
            for m in [0u32, 1, 2, 5, 17, 64] {
                let small = irwin_hall_row(m, &t);
                for k in 0..=m as usize {
                    assert_eq!(big.cdf[k].to_bits(), small.cdf[k].to_bits(), "F_{k}({t})");
                }
            }
        }
    }

    #[test]
    fn ball_rows_enclose_the_cdf_across_a_straddled_knot() {
        // An interval argument the knot comparisons cannot decide
        // (δ/β in a generic Ball closed form is one ulp wide) must
        // still give enclosures of every F_m and f_m (m ≥ 2) over the
        // whole interval.
        use rational::Ball;
        for k in 0..=6i64 {
            for (below, above) in [(1e-9, 1e-9), (0.0, 1e-12), (1e-12, 0.0), (0.3, 0.4)] {
                let (lo, hi) = (k as f64 - below, k as f64 + above);
                let row = irwin_hall_row(8, &Ball::new(lo.max(0.0), hi));
                for x in [lo.max(0.0), k as f64, hi] {
                    let t = Rational::from_f64_exact(x).unwrap();
                    for m in 0..=8u32 {
                        let (c, f) = (row.cdf[m as usize], irwin_hall_cdf(m, &t).to_f64());
                        assert!(c.lo() <= f && f <= c.hi(), "F_{m}({x}) = {f} outside {c:?}");
                        if m >= 2 {
                            let (p, f) = (row.pdf[m as usize], irwin_hall_pdf(m, &t).to_f64());
                            assert!(p.lo() <= f && f <= p.hi(), "f_{m}({x}) = {f} outside {p:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn huge_and_saturated_arguments_stay_cheap_and_exact() {
        let row = irwin_hall_row(128, &1e300);
        assert!(row.cdf.iter().all(|&f| f == 1.0));
        assert!(row.pdf.iter().chain(&row.dpdf).all(|&f| f == 0.0));
        let row = irwin_hall_row(4, &-0.5);
        assert!(row.cdf.iter().all(|&f| f == 0.0));
    }

    #[test]
    fn density_integrates_to_one_numerically() {
        for m in 1..=5u32 {
            let steps = 2_000;
            let h = f64::from(m) / steps as f64;
            let mut integral = 0.0;
            for i in 0..steps {
                let t = (i as f64 + 0.5) * h;
                integral += irwin_hall_pdf_in(m, &t) * h;
            }
            assert!((integral - 1.0).abs() < 1e-3, "m={m}: {integral}");
        }
    }
}
