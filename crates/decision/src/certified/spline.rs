//! Certified Irwin–Hall enclosures over wide arguments, from the
//! shared cancellation-free B-spline row.
//!
//! The alternating closed form of Corollary 2.6 is hopeless for
//! certified arithmetic at large `m`: its condition number reaches
//! `~5e33` at `m = 128`, so even perfect interval arithmetic around it
//! returns enclosures wider than `[0, 1]`. The workspace's one
//! evaluator for rounding scalars, [`uniform_sums::irwin_hall_row`],
//! uses the *positive* formulation instead — the Irwin–Hall density of
//! `m` uniforms is the cardinal B-spline `N_m`, the CDF is
//! `F_m(t) = Σ_{j ≥ 0} N_{m+1}(t − j)`, and the Cox–de Boor recurrence
//! combines non-negative values with non-negative weights — so
//! [`Ball`] widths stay near the ulp scale even at `m = 256`, and the
//! same row in `f64` stays within a few ulps of the exact CDF up to
//! `m = 128`.
//!
//! This module runs that row at *point* arguments only. Feeding a
//! wide ball through it directly is sound but loose: every step uses
//! the argument twice (`u` and `k − u`), interval arithmetic treats
//! the two as independent, and the width compounds with the order.
//! [`ih_eval`] instead evaluates the two
//! endpoint rows and reassembles interval answers from monotonicity
//! (the CDF is nondecreasing in `t`) and a Lipschitz bound
//! (`|N_m'| ≤ 1` for `m ≥ 2`, since
//! `N_m' (t) = N_{m−1}(t) − N_{m−1}(t−1)` and `0 ≤ N ≤ 1`), which
//! stays tight across knots; it also extracts the density and density
//! derivative enclosures the certified `P''` bounds need.

use rational::{Ball, Scalar};
use uniform_sums::irwin_hall_row;

/// Irwin–Hall CDF, density, and density-derivative enclosures for
/// every order `0..=n` at a common evaluation argument.
pub(crate) struct IhTriangle {
    /// `cdf[m]` encloses `F_m` over the argument, for `m = 0..=n`.
    pub(crate) cdf: Vec<Ball>,
    /// `pdf[m]` encloses `f_m` over the argument, for `m = 1..=n`;
    /// `pdf[0]` is zero (the empty sum has no density).
    pub(crate) pdf: Vec<Ball>,
    /// `dpdf[m]` encloses the a.e. derivative
    /// `f_m' = N_{m−1}(t) − N_{m−1}(t−1)` over the argument. Entries
    /// are almost-everywhere enclosures: at an exact knot of a low
    /// order (`m ≤ 2`, where `f_m'` jumps) a point evaluation carries
    /// the right-limit only — sound for integrating `P''` over cells,
    /// which is the sole consumer.
    pub(crate) dpdf: Vec<Ball>,
}

/// Intersects an enclosure with `[−1, 1]`, the range of every
/// B-spline density derivative (`|N_m'| ≤ 1` since
/// `N_m' = N_{m−1}(t) − N_{m−1}(t−1)` and `0 ≤ N ≤ 1`).
fn clamp_sym(b: Ball) -> Ball {
    if b.hi() < -1.0 || b.lo() > 1.0 {
        return b;
    }
    Ball::new(b.lo().max(-1.0), b.hi().min(1.0))
}

/// Enclosures of `F_m` and `f_m` for all `m = 0..=n` over a
/// non-negative (possibly wide) argument ball, assembled from the two
/// endpoint recurrence triangles.
///
/// The CDF interval is `[F(x.lo).lo, F(x.hi).hi]` by monotonicity.
/// The density interval is the hull of the endpoint densities plus a
/// curvature slack: for `m ≥ 3`, `N_m` is `C¹` with piecewise
/// `|N_m''| = |N_{m−2}(t) − 2 N_{m−2}(t−1) + N_{m−2}(t−2)| ≤ 2`, so
/// the interior deviates from the endpoint hull by at most
/// `|f''|·w²/8 ≤ w²/4` — *quadratic* in the width, which is what lets
/// derivative sign tests stay decisive on small cells. The tent `N_2`
/// deviates by at most `w/2` (unit slope toward its single kink), and
/// the discontinuous `f_1` is bounded by its support indicator.
/// Either bound stays near ulp-tight even when `x` straddles a knot,
/// where the naive wide-argument recurrence collapses.
pub(crate) fn ih_eval(n: u32, x: Ball) -> IhTriangle {
    contracts::invariant!(x.lo() >= 0.0, "ih_eval needs a non-negative argument");
    let lo_t = ih_point(n, x.lo());
    if x.width() == 0.0 {
        return lo_t;
    }
    let hi_t = ih_point(n, x.hi());
    let w = x.width();
    // 0.26 > 1/4 absorbs the rounding of the float square.
    let s2 = 0.26 * w * w;
    let curve = Ball::new(-s2, s2);
    let tent = Ball::new(-0.5 * w, 0.5 * w);
    // `f_m'` is C⁰ piecewise linear at m = 3 (slope `|N_3''| ≤ 2`)
    // and C¹ with a.e. `|N_m'''| ≤ 4` for m ≥ 4, so its interior
    // deviates from the endpoint hull by at most `w` resp. `w²/2`.
    let kink = Ball::new(-w, w);
    let s3 = 0.51 * w * w;
    let curve3 = Ball::new(-s3, s3);
    let mut cdf = Vec::with_capacity(n as usize + 1);
    let mut pdf = Vec::with_capacity(n as usize + 1);
    let mut dpdf = Vec::with_capacity(n as usize + 1);
    for m in 0..=n as usize {
        cdf.push(Ball::new(lo_t.cdf[m].lo(), hi_t.cdf[m].hi()));
        pdf.push(match m {
            0 => Ball::zero(),
            1 => {
                // f_1 jumps at the knots: bound it by its support.
                let hi = if x.hi() <= 0.0 || x.lo() >= 1.0 {
                    0.0
                } else {
                    1.0
                };
                let lo = if x.lo() > 0.0 && x.hi() < 1.0 {
                    1.0
                } else {
                    0.0
                };
                Ball::new(lo, hi)
            }
            2 => (lo_t.pdf[2].hull(&hi_t.pdf[2]) + tent).clamp_unit(),
            _ => (lo_t.pdf[m].hull(&hi_t.pdf[m]) + curve).clamp_unit(),
        });
        dpdf.push(match m {
            0 => Ball::zero(),
            1 => {
                // f_1' is zero off [0, 1] and distributional on it.
                if x.lo() > 1.0 || x.hi() < 0.0 {
                    Ball::zero()
                } else {
                    Ball::ENTIRE
                }
            }
            2 => Ball::new(-1.0, 1.0),
            3 => clamp_sym(lo_t.dpdf[3].hull(&hi_t.dpdf[3]) + kink),
            _ => clamp_sym(lo_t.dpdf[m].hull(&hi_t.dpdf[m]) + curve3),
        });
    }
    IhTriangle { cdf, pdf, dpdf }
}

/// One Cox–de Boor triangle at the point argument `x ≥ 0`: enclosures
/// of `F_m(x)` for `m = 0..=n` and `f_m(x)` for `m = 1..=n`, extracted
/// from the shared [`irwin_hall_row`] and intersected with their known
/// ranges.
///
/// An argument at or beyond `n` is answered by the saturation
/// early-out (`F_m = 1`, `f_m = 0` for `x ≥ m`); a non-finite
/// argument degrades to the trivial `[0, 1]` enclosures. An argument
/// exactly on a knot takes the half-open indicator branch, which is
/// the right-continuous (true CDF) value.
fn ih_point(n: u32, x: f64) -> IhTriangle {
    let len = n as usize + 1;
    if !x.is_finite() {
        let wide = Ball::new(0.0, 1.0);
        return IhTriangle {
            cdf: vec![wide; len],
            pdf: vec![wide; len],
            dpdf: vec![Ball::ENTIRE; len],
        };
    }
    if x >= f64::from(n) {
        // Saturated: every order m ≤ n has all its mass below x.
        return IhTriangle {
            cdf: vec![Ball::one(); len],
            pdf: vec![Ball::zero(); len],
            dpdf: vec![Ball::zero(); len],
        };
    }
    let row = irwin_hall_row(n, &Ball::point(x));
    let mut dpdf: Vec<Ball> = row.dpdf.into_iter().map(clamp_sym).collect();
    if n >= 1 && (x == 0.0 || x == 1.0) {
        // f_1' is distributional exactly on its knots {0, 1}.
        dpdf[1] = Ball::ENTIRE;
    }
    IhTriangle {
        cdf: row.cdf,
        pdf: row.pdf,
        dpdf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rational::Rational;
    use uniform_sums::{irwin_hall_cdf, irwin_hall_pdf};

    fn r(n: i64, d: i64) -> Rational {
        Rational::ratio(n, d)
    }

    #[test]
    fn point_triangle_encloses_exact_values_small_orders() {
        for num in 1..=40i64 {
            let t = r(num, 8);
            let x = <Ball as Scalar>::from_rational(&t);
            let tri = ih_eval(6, x);
            for m in 0..=6u32 {
                let exact_cdf = irwin_hall_cdf(m, &t).to_f64();
                let c = tri.cdf[m as usize];
                assert!(
                    c.lo() - 1e-15 <= exact_cdf && exact_cdf <= c.hi() + 1e-15,
                    "F_{m}({t}) = {exact_cdf} not in [{}, {}]",
                    c.lo(),
                    c.hi()
                );
                if m >= 1 {
                    let exact_pdf = irwin_hall_pdf(m, &t).to_f64();
                    let p = tri.pdf[m as usize];
                    assert!(
                        p.lo() - 1e-14 <= exact_pdf && exact_pdf <= p.hi() + 1e-14,
                        "f_{m}({t}) = {exact_pdf} not in [{}, {}]",
                        p.lo(),
                        p.hi()
                    );
                }
            }
        }
    }

    #[test]
    fn triangle_stays_tight_at_large_order() {
        // The whole point of the B-spline route: at m = 128 the
        // enclosure width stays near ulp scale where the alternating
        // form would return garbage wider than [0, 1].
        for t_num in [40i64, 64, 96, 120] {
            let x = <Ball as Scalar>::from_rational(&r(t_num, 1));
            let tri = ih_eval(128, x);
            for m in [64usize, 100, 128] {
                assert!(
                    tri.cdf[m].width() < 1e-10,
                    "width {} at m={m}, t={t_num}",
                    tri.cdf[m].width()
                );
            }
        }
    }

    #[test]
    fn knot_straddling_argument_stays_tight() {
        // Regression: a 1-ulp ball across an integer knot used to
        // widen the naive wide-argument recurrence to width ≈ 1/2;
        // the endpoint-monotonicity assembly keeps it at ulp scale.
        let ten = 10.0f64;
        let x = Ball::new(ten.next_down(), ten.next_up());
        let tri = ih_eval(20, x);
        let exact = irwin_hall_cdf(20, &r(10, 1)).to_f64();
        let c = tri.cdf[20];
        assert!(c.width() < 1e-12, "width {}", c.width());
        assert!(c.lo() - 1e-13 <= exact && exact <= c.hi() + 1e-13);
        let p = tri.pdf[20];
        let exact_pdf = irwin_hall_pdf(20, &r(10, 1)).to_f64();
        assert!(p.lo() - 1e-11 <= exact_pdf && exact_pdf <= p.hi() + 1e-11);
    }

    #[test]
    fn triangle_matches_exact_context_at_m_30() {
        let mut ctx = uniform_sums::EvalContext::<Rational>::new();
        for t_num in [5i64, 15, 28, 29] {
            let t = r(t_num, 1);
            let tri = ih_eval(30, <Ball as Scalar>::from_rational(&t));
            let exact = ctx.irwin_hall_cdf(30, &t).to_f64();
            let c = tri.cdf[30];
            assert!(
                c.lo() - 1e-15 <= exact && exact <= c.hi() + 1e-15,
                "F_30({t_num}) = {exact} not in [{}, {}]",
                c.lo(),
                c.hi()
            );
        }
    }

    #[test]
    fn saturation_and_degenerate_arguments() {
        let tri = ih_eval(4, Ball::point(7.0));
        assert_eq!(tri.cdf[4], Ball::one());
        assert_eq!(tri.pdf[4], Ball::zero());
        let wide = ih_eval(3, Ball::new(0.0, f64::INFINITY));
        for m in 0..=3usize {
            assert!(wide.cdf[m].lo() >= 0.0 && wide.cdf[m].hi() <= 1.0);
        }
    }

    #[test]
    fn wide_argument_encloses_the_whole_range() {
        // A genuinely wide ball across the knot t = 1: the enclosure
        // must cover the exact values on both sides, and f_1's jump
        // must be bounded by its support indicator.
        let x = Ball::new(0.9, 1.1);
        let tri = ih_eval(3, x);
        for t in [r(9, 10), r(1, 1), r(11, 10)] {
            let exact = irwin_hall_cdf(2, &t).to_f64();
            assert!(
                tri.cdf[2].lo() <= exact + 1e-12 && exact <= tri.cdf[2].hi() + 1e-12,
                "F_2({t}) = {exact} outside wide enclosure"
            );
        }
        assert_eq!(tri.pdf[1], Ball::new(0.0, 1.0));
        // f_2 (the tent) over [0.9, 1.1]: true range is [0.9, 1.0].
        assert!(tri.pdf[2].lo() <= 0.9 && tri.pdf[2].hi() >= 1.0);
        assert!(tri.pdf[2].width() < 0.5);
    }
}
