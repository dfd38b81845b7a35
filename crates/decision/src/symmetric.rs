//! Section 5: non-oblivious single-threshold algorithms with a common
//! threshold `β` — the exact piecewise-polynomial winning probability
//! and its maximization.
//!
//! For a symmetric threshold `β`, group the players by their decision:
//! with `m₀` players in bin 0 and `m₁ = n − m₀` in bin 1,
//!
//! ```text
//! P(β) = Σ_{m₀=0}^{n} C(n, m₀) · A_{m₀}(β) · B_{n−m₀}(β)
//!
//! A_m(β) = (1/m!) Σ_{i=0..m, iβ < δ} (−1)^i C(m,i) (δ − iβ)^m
//! B_m(β) = (1−β)^m − (1/m!) Σ_{j=0..m, j < m−δ+jβ} (−1)^j C(m,j) (m−δ−j+jβ)^m
//! ```
//!
//! where `A_m` is `P(y-group) · P(Σ₀ ≤ δ | bin 0)` (Lemma 2.4 for
//! uniforms on `[0,β]`) and `B_m` the bin-1 analogue (Lemma 2.7 for
//! uniforms on `[β,1]`). Each indicator flips only at the rational
//! break-points `β = δ/i` and `β = 1 − (m−δ)/j`, so between
//! break-points `P(β)` is a polynomial of degree `n` with rational
//! coefficients — which this module constructs exactly.
//!
//! This module is deliberately *not* generic over
//! [`rational::Scalar`]: its output is a symbolic
//! [`PiecewisePolynomial`] in `β`,
//! which only makes sense exactly. Point evaluations of the same
//! quantity in either field go through the generic
//! [`crate::winning_probability_threshold_in`].

use crate::{Capacity, ModelError};
use polynomial::{PiecewisePolynomial, Polynomial};
use rational::{binomial_rational, factorial_rational, Rational};

/// Computes the exact winning probability `P(β)` of the symmetric
/// single-threshold algorithm as a piecewise polynomial on `[0, 1]`.
///
/// # Errors
///
/// Returns [`ModelError::TooFewPlayers`] if `n < 2`.
///
/// # Examples
///
/// Reproducing the paper's Section 5.2.1 pieces for `n = 3, δ = 1`:
///
/// ```
/// use decision::{symmetric, Capacity};
/// use rational::Rational;
///
/// let pw = symmetric::analyze(3, &Capacity::unit()).unwrap();
/// // Lower piece: 1/6 + 3/2 β² − 1/2 β³.
/// let p = &pw.pieces()[0];
/// assert_eq!(p.coeff(0), Rational::ratio(1, 6));
/// assert_eq!(p.coeff(2), Rational::ratio(3, 2));
/// assert_eq!(p.coeff(3), Rational::ratio(-1, 2));
/// ```
pub fn analyze(n: usize, capacity: &Capacity) -> Result<PiecewisePolynomial<Rational>, ModelError> {
    if n < 2 {
        return Err(ModelError::TooFewPlayers { n });
    }
    let delta = capacity.value();
    let breakpoints = breakpoints(n, delta);
    let mut pieces = Vec::with_capacity(breakpoints.len() - 1);
    for window in breakpoints.windows(2) {
        let probe = window[0].midpoint(&window[1]);
        pieces.push(piece_polynomial(n, delta, &probe));
    }
    Ok(PiecewisePolynomial::new(breakpoints, pieces))
}

/// The per-piece optimality conditions: the derivative `P'(β)` of each
/// polynomial piece, paired with the piece's interval. Zeroing these
/// (per interval) is exactly the paper's Theorem 5.2 specialized to a
/// symmetric algorithm.
///
/// # Errors
///
/// Returns [`ModelError::TooFewPlayers`] if `n < 2`.
///
/// ```
/// use decision::{symmetric, Capacity};
/// use rational::Rational;
///
/// // n = 3, δ = 1, upper piece: P' = 9 − 21β + 21/2 β², i.e. the
/// // paper's condition 6/7 − 2β + β² = 0 after dividing by 21/2.
/// let conds = symmetric::optimality_conditions(3, &Capacity::unit()).unwrap();
/// let (interval, dp) = conds.last().unwrap().clone();
/// assert_eq!(interval.0, Rational::ratio(1, 2));
/// let scaled = dp.scale(&Rational::ratio(2, 21));
/// assert_eq!(scaled.coeff(0), Rational::ratio(6, 7));
/// ```
#[allow(clippy::type_complexity)]
pub fn optimality_conditions(
    n: usize,
    capacity: &Capacity,
) -> Result<Vec<((Rational, Rational), Polynomial<Rational>)>, ModelError> {
    let pw = analyze(n, capacity)?;
    Ok(pw
        .breakpoints()
        .windows(2)
        .zip(pw.pieces())
        .map(|(w, p)| ((w[0].clone(), w[1].clone()), p.derivative()))
        .collect())
}

/// The sorted, deduplicated break-points of `P(β)` on `[0, 1]`:
/// `0`, `1`, every `δ/i` (`i = 1..n`), and every `1 − (m−δ)/j`
/// (`m = 1..n`, `j = 1..m`) that falls inside `(0, 1)`.
fn breakpoints(n: usize, delta: &Rational) -> Vec<Rational> {
    let zero = Rational::zero();
    let one = Rational::one();
    let mut points = vec![zero.clone(), one.clone()];
    for i in 1..=n as i64 {
        let b = delta / Rational::integer(i);
        if b > zero && b < one {
            points.push(b);
        }
    }
    for m in 1..=n as i64 {
        for j in 1..=m {
            let b = Rational::one() - (Rational::integer(m) - delta) / Rational::integer(j);
            if b > zero && b < one {
                points.push(b);
            }
        }
    }
    points.sort();
    points.dedup();
    points
}

/// Builds the exact polynomial valid on the piece containing `probe`.
fn piece_polynomial(n: usize, delta: &Rational, probe: &Rational) -> Polynomial<Rational> {
    let mut total = Polynomial::zero();
    for m0 in 0..=n {
        let m1 = n - m0;
        let ways = binomial_rational(n as u32, m0 as u32);
        let term = term_a(m0, delta, probe) * term_b(m1, delta, probe);
        total = &total + &term.scale(&ways);
    }
    total
}

/// `A_m(β) = (1/m!) Σ_{i: iβ < δ at the probe} (−1)^i C(m,i)(δ − iβ)^m`.
///
/// This is `β^m · P(Σ_{bin 0} ≤ δ | every member ≤ β)` — the
/// decision-probability factor absorbed into Lemma 2.4's CDF.
fn term_a(m: usize, delta: &Rational, probe: &Rational) -> Polynomial<Rational> {
    if m == 0 {
        return Polynomial::one();
    }
    let mut acc = Polynomial::zero();
    for i in 0..=m as i64 {
        // Indicator: iβ < δ, evaluated at the probe point.
        if &(Rational::integer(i) * probe) >= delta {
            break;
        }
        // (δ − iβ)^m as a polynomial in β.
        let linear = Polynomial::new(vec![delta.clone(), Rational::integer(-i)]);
        let mut term = linear.pow(m as u32);
        term = term.scale(&binomial_rational(m as u32, i as u32));
        if i % 2 == 0 {
            acc = &acc + &term;
        } else {
            acc = &acc - &term;
        }
    }
    acc.scale(&factorial_rational(m as u32).recip())
}

/// `B_m(β) = (1−β)^m − (1/m!) Σ_{j: j < m−δ+jβ at the probe}
/// (−1)^j C(m,j)(m−δ−j+jβ)^m` — the bin-1 factor from Lemma 2.7.
fn term_b(m: usize, delta: &Rational, probe: &Rational) -> Polynomial<Rational> {
    if m == 0 {
        return Polynomial::one();
    }
    let one_minus_beta = Polynomial::new(vec![Rational::one(), -Rational::one()]);
    let mut acc = Polynomial::zero();
    let m_rat = Rational::integer(m as i64);
    for j in 0..=m as i64 {
        // Indicator: j < m − δ + jβ, evaluated at the probe point.
        let rhs = &m_rat - delta + Rational::integer(j) * probe;
        if Rational::integer(j) >= rhs {
            continue;
        }
        // (m − δ − j + jβ)^m as a polynomial in β.
        let constant = &m_rat - delta - Rational::integer(j);
        let linear = Polynomial::new(vec![constant, Rational::integer(j)]);
        let mut term = linear.pow(m as u32);
        term = term.scale(&binomial_rational(m as u32, j as u32));
        if j % 2 == 0 {
            acc = &acc + &term;
        } else {
            acc = &acc - &term;
        }
    }
    &one_minus_beta.pow(m as u32) - &acc.scale(&factorial_rational(m as u32).recip())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{winning_probability_threshold, SingleThresholdAlgorithm};

    fn r(n: i64, d: i64) -> Rational {
        Rational::ratio(n, d)
    }

    fn unit() -> Capacity {
        Capacity::unit()
    }

    #[test]
    fn breakpoints_n3_delta1_match_paper_case_analysis() {
        let pw = analyze(3, &unit()).unwrap();
        assert_eq!(
            pw.breakpoints(),
            &[r(0, 1), r(1, 3), r(1, 2), r(1, 1)],
            "paper 5.2.1 splits at 1/3 and 1/2"
        );
    }

    #[test]
    fn pieces_n3_delta1_match_paper_polynomials() {
        let pw = analyze(3, &unit()).unwrap();
        // [0, 1/3] and (1/3, 1/2]: 1/6 + 3/2 β² − 1/2 β³.
        let lower = Polynomial::new(vec![r(1, 6), r(0, 1), r(3, 2), r(-1, 2)]);
        assert_eq!(pw.pieces()[0], lower);
        assert_eq!(pw.pieces()[1], lower);
        // (1/2, 1]: −11/6 + 9β − 21/2 β² + 7/2 β³.
        let upper = Polynomial::new(vec![r(-11, 6), r(9, 1), r(-21, 2), r(7, 2)]);
        assert_eq!(pw.pieces()[2], upper);
    }

    #[test]
    fn piecewise_is_continuous() {
        for n in 2..=6usize {
            for cap in [
                unit(),
                Capacity::proportional(n, 3),
                Capacity::new(r(4, 3)).unwrap(),
            ] {
                let pw = analyze(n, &cap).unwrap();
                assert!(pw.is_continuous(), "n={n}, {cap}");
            }
        }
    }

    #[test]
    fn matches_direct_winning_probability() {
        for n in 2..=5usize {
            for cap in [unit(), Capacity::new(r(4, 3)).unwrap()] {
                let pw = analyze(n, &cap).unwrap();
                for k in 0..=12 {
                    let beta = r(k, 12);
                    let algo = SingleThresholdAlgorithm::symmetric(n, beta.clone()).unwrap();
                    let direct = winning_probability_threshold(&algo, &cap).unwrap();
                    assert_eq!(pw.eval(&beta).unwrap(), direct, "n={n}, {cap}, β={beta}");
                }
            }
        }
    }

    #[test]
    fn optimum_n3_delta1_settles_py_conjecture() {
        let pw = analyze(3, &unit()).unwrap();
        let best = pw.maximize(&r(1, 1_000_000_000));
        // β* = 1 − √(1/7) ≈ 0.62203, P* ≈ 0.54475.
        let beta_star = 1.0 - (1.0f64 / 7.0).sqrt();
        assert!((best.argmax.to_f64() - beta_star).abs() < 1e-7);
        let p_star =
            -11.0 / 6.0 + 9.0 * beta_star - 10.5 * beta_star * beta_star + 3.5 * beta_star.powi(3);
        assert!((best.value.to_f64() - p_star).abs() < 1e-9);
        assert!(best.value.to_f64() > 0.54462 && best.value.to_f64() < 0.54464);
        // Non-obliviousness helps here: the oblivious symmetric
        // optimum is 5/12 ≈ 0.4167.
        let oblivious = crate::oblivious::optimal_value(3, &unit()).unwrap();
        assert!(best.value > oblivious);
    }

    #[test]
    fn optimum_n4_delta_4_3() {
        // Paper Section 5.2.2 reports β* ≈ 0.678; our exact pipeline
        // confirms the location of the optimum. (The quartic printed in
        // the paper is typo-garbled — 0.678 is not even a root of it —
        // but the optimum of the correctly re-derived piecewise quartic
        // sits exactly where the paper says.)
        let cap = Capacity::new(r(4, 3)).unwrap();
        let pw = analyze(4, &cap).unwrap();
        let best = pw.maximize(&r(1, 1_000_000_000));
        assert!(
            (best.argmax.to_f64() - 0.678).abs() < 5e-3,
            "argmax {}",
            best.argmax.to_f64()
        );
        assert!(
            (best.value.to_f64() - 0.42854).abs() < 5e-4,
            "value {}",
            best.value.to_f64()
        );
        // Measured deviation from the paper's narrative: at n = 4,
        // δ = 4/3 the best symmetric threshold algorithm actually loses
        // to the fair oblivious coin (0.42854 < 0.43133). Both numbers
        // are exact here and independently validated by Monte-Carlo
        // simulation; see EXPERIMENTS.md.
        let oblivious = crate::oblivious::optimal_value(4, &cap).unwrap();
        assert!(best.value < oblivious);
        assert!((oblivious.to_f64() - 0.43133).abs() < 5e-5);
    }

    #[test]
    fn optimality_condition_n3_matches_paper_quadratic() {
        // Upper piece derivative: 9 − 21β + 21/2 β² = (21/2)(6/7 − 2β + β²).
        let conds = optimality_conditions(3, &unit()).unwrap();
        let (_, dp) = conds.last().unwrap();
        let expected = Polynomial::new(vec![r(6, 7), r(-2, 1), r(1, 1)]).scale(&r(21, 2));
        assert_eq!(dp, &expected);
    }

    #[test]
    fn beta_zero_and_one_reduce_to_all_in_one_bin() {
        // β = 0: everyone picks bin 1; β = 1: everyone picks bin 0.
        // Both give P = F_n(δ) by symmetry of the two bins.
        for n in 2..=5usize {
            let pw = analyze(n, &unit()).unwrap();
            let f_n = uniform_sums::irwin_hall_cdf(n as u32, &Rational::one());
            assert_eq!(pw.eval(&r(0, 1)).unwrap(), f_n, "n={n} at β=0");
            assert_eq!(pw.eval(&r(1, 1)).unwrap(), f_n, "n={n} at β=1");
        }
    }

    #[test]
    fn optimal_beta_drifts_with_n_nonuniformity() {
        // The optimal β* differs across n (with the paper's δ = n/3
        // scaling), demonstrating non-uniformity.
        let tol = r(1, 1 << 30);
        let b3 = analyze(3, &Capacity::proportional(3, 3))
            .unwrap()
            .maximize(&tol)
            .argmax;
        let b4 = analyze(4, &Capacity::proportional(4, 3))
            .unwrap()
            .maximize(&tol)
            .argmax;
        let b5 = analyze(5, &Capacity::proportional(5, 3))
            .unwrap()
            .maximize(&tol)
            .argmax;
        assert!((&b3 - &b4).abs() > r(1, 100));
        assert!((&b4 - &b5).abs() > r(1, 1000));
    }
}
