//! Certified optimal-threshold analytics: machine-checked enclosures
//! of `β*_n` and `P*_n` for the symmetric single-threshold game.
//!
//! The exact pipeline ([`crate::symmetric`]) answers any fixed `n`
//! bit-for-bit, but its piecewise-polynomial construction grows
//! quickly, and the plain `f64` pipeline answers fast with no error
//! bound at all. This module closes the gap with a third mode:
//! evaluate Theorem 5.1 in [`Ball`] arithmetic (outward-rounded
//! interval `f64`), so every computed quantity is a *proved* enclosure
//! of its real value, and every sign test either certifies or refuses.
//!
//! Two certification paths feed the same [`CertifiedThreshold`] shape:
//!
//! * **exact** (`n ≤` [`EXACT_MAX`]): the piecewise polynomial from
//!   [`crate::symmetric::analyze`] is maximized rigorously — Sturm
//!   root isolation of each piece derivative, rational bisection, and
//!   a Lipschitz value bound per candidate — entirely in [`Rational`]
//!   arithmetic, converted outward to `f64` at the very end. This is
//!   the automatic fallback wherever ball sign tests would straddle
//!   zero: near the optimum `P'(β) ≈ 0` by definition, and only exact
//!   arithmetic can separate candidates whose values agree to within
//!   the ball's width.
//! * **ball** (larger `n`): [`Evaluator`] computes certified
//!   enclosures of `P(β)` and `P'(β)` through a cancellation-free
//!   B-spline form of the Irwin–Hall CDF, a bracket
//!   `P'(a) > 0 > P'(b)` is certified and bisected below the width
//!   target, and a global adaptive pass proves that no `β` outside
//!   `[a, b]` can compete (each excluded cell is ruled out either by
//!   value — its `P` enclosure tops out below the certified `P*`
//!   lower bound — or by a certified strict derivative sign pointing
//!   toward the bracket).
//!
//! [`build_table`] runs the pipeline for `n = 2..=max_n` and is what
//! `cargo xtask table` serializes into `results/threshold_table.json`;
//! [`spot_check`] is the cheap re-certification used by
//! `cargo xtask table-check` and the service smoke test.

mod spline;
mod table;

pub use table::{ThresholdRow, ThresholdTable, SCHEMA};

use crate::{symmetric, Capacity};
use polynomial::{Interval, Polynomial, SturmChain};
use rational::{Ball, Rational, Scalar};
use spline::ih_eval;
use std::fmt;

/// Largest `n` routed to the exact rational path; beyond it the
/// piecewise-polynomial construction (degree `n`, `O(n²)` pieces with
/// fast-growing coefficients) costs more than the certified ball
/// pipeline, which stays accurate there.
pub const EXACT_MAX: u32 = 10;

/// Required width of every published `β*` and `P*` enclosure.
pub const WIDTH_TARGET: f64 = 1e-9;

/// Bisection width goal, kept below [`WIDTH_TARGET`] so ambiguous
/// final steps still land under the published requirement.
const BISECT_TARGET: f64 = 2.5e-10;

/// Evaluation budget of one global exclusion pass (soundness never
/// depends on it: running out fails the certification, it does not
/// weaken it).
const GLOBAL_EVAL_BUDGET: u32 = 200_000;

/// Recursion depth cap of the global exclusion pass.
const GLOBAL_DEPTH: u32 = 60;

/// Margin keeping coarse-scan grid points off the `β ∈ {0, 1}`
/// boundary (where the interior analysis degenerates).
const SCAN_MARGIN: f64 = 1e-3;

/// Hard clamp keeping bracket probes strictly inside `(0, 1)`.
const EDGE_MARGIN: f64 = 1e-6;

/// Initial bracketing step around the coarse optimum.
const BRACKET_STEP: f64 = 1e-7;

/// Cell width below which the global pass stops splitting (the
/// evaluator's enclosures no longer tighten beneath it).
const MIN_CELL: f64 = 1e-13;

/// Which pipeline produced a certified row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Exact rational maximization of the symbolic piecewise
    /// polynomial.
    Exact,
    /// Ball-arithmetic bracket certification with a global exclusion
    /// pass.
    Ball,
}

impl Method {
    /// Stable serialization name (the `method` field of the table
    /// schema).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Exact => "exact",
            Method::Ball => "ball",
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A certified enclosure of the optimal symmetric threshold for `n`
/// players at the paper's capacity rule `δ = n/3`.
///
/// Both intervals are rigorous: the true `β*_n` lies in `beta` and the
/// true `P*_n = P(β*_n)` lies in `p`, with the real-valued claims
/// backed by outward-rounded arithmetic end to end.
#[derive(Clone, Debug, PartialEq)]
pub struct CertifiedThreshold {
    /// Number of players.
    pub n: u32,
    /// Enclosure of the optimal threshold `β*_n`.
    pub beta: Interval<f64>,
    /// Enclosure of the optimal winning probability `P*_n`.
    pub p: Interval<f64>,
    /// Pipeline that produced (and proved) the enclosures.
    pub method: Method,
}

/// Why a certification attempt produced no row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertifyError {
    /// The game needs at least two players.
    TooFewPlayers {
        /// The rejected player count.
        n: u32,
    },
    /// A sign test or separation stayed ambiguous within budget; the
    /// stage names the step that refused to certify.
    Ambiguous {
        /// The player count being certified.
        n: u32,
        /// The pipeline stage that could not decide.
        stage: &'static str,
    },
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertifyError::TooFewPlayers { n } => {
                write!(f, "certification needs at least 2 players, got {n}")
            }
            CertifyError::Ambiguous { n, stage } => {
                write!(
                    f,
                    "certification for n = {n} stayed ambiguous at stage `{stage}`"
                )
            }
        }
    }
}

impl std::error::Error for CertifyError {}

/// A joint enclosure of `P(β)`, `P'(β)`, and `P''(β)` over one
/// threshold ball.
#[derive(Clone, Copy, Debug)]
pub struct PEval {
    /// Enclosure of the winning probability over the input ball.
    pub p: Ball,
    /// Enclosure of the derivative `P'` over the input ball (the whole
    /// line when the input straddles a domain boundary, where the
    /// one-sided pieces make a finite derivative bound meaningless).
    pub dp: Ball,
    /// Enclosure of the a.e. second derivative `P''` over the input
    /// ball (the whole line at domain boundaries, like `dp`). Used by
    /// the global pass to evaluate `P'` in centered form
    /// `P'(mid) + P''·(x − mid)`, whose width scales with the true
    /// curvature instead of the decorrelation noise of the direct
    /// interval sum.
    pub ddp: Ball,
}

/// Certified evaluator of the symmetric Theorem 5.1 winning
/// probability `P(β)` and its derivative at capacity `δ = n/3`.
///
/// Internally `P(β) = Σ_k C(n,k) · A_k(β) · B_{n−k}(β)` with
/// `A_k = β^k F_k(δ/β)` (bin 0, Lemma 2.4) and
/// `B_m = γ^m F_m((δ−mβ)/γ)`, `γ = 1 − β` (bin 1, Lemma 2.7) — a sum
/// of *non-negative* products, evaluated through the cancellation-free
/// B-spline Irwin–Hall recurrence, so enclosures stay tight even at
/// `n` in the hundreds where the alternating closed form is
/// numerically void.
pub struct Evaluator {
    n: u32,
    /// Enclosure of the capacity `δ = n/3`.
    delta: Ball,
    /// Pascal row `C(n, k)`, `k = 0..=n`, as exact-until-2⁵³ balls.
    binom: Vec<Ball>,
}

impl Evaluator {
    /// Builds the evaluator for `n` players at `δ = n/3`.
    #[must_use]
    pub fn new(n: u32) -> Evaluator {
        Evaluator {
            n,
            delta: Ball::from_ratio(i64::from(n), 3),
            binom: binomial_row(n),
        }
    }

    /// The player count this evaluator certifies.
    #[must_use]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Certified enclosures of `P` and `P'` over `beta` (a point or a
    /// whole cell of thresholds).
    #[must_use]
    pub fn eval(&self, beta: Ball) -> PEval {
        let n = self.n as usize;
        let gamma = Ball::one() - beta;
        let (a_val, a_der) = self.a_side(beta, n);
        let (b_val, b_der) = self.b_side(beta, gamma, n);
        let mut p = Ball::zero();
        let mut dp = Ball::zero();
        let mut ddp = Ball::zero();
        let exact_dp = a_der.is_some() && b_der.is_some();
        for k in 0..=n {
            let m = n - k;
            p = p + self.binom[k] * (a_val[k] * b_val[m]);
            if let (Some((da, da2)), Some((db, db2))) = (&a_der, &b_der) {
                dp = dp + self.binom[k] * (a_val[k] * db[m] + da[k] * b_val[m]);
                ddp = ddp
                    + self.binom[k]
                        * (da2[k] * b_val[m]
                            + Ball::from_i64(2) * (da[k] * db[m])
                            + a_val[k] * db2[m]);
            }
        }
        PEval {
            p: p.clamp_unit(),
            dp: if exact_dp { dp } else { Ball::ENTIRE },
            ddp: if exact_dp { ddp } else { Ball::ENTIRE },
        }
    }

    /// Bin-0 factors `A_k = β^k F_k(δ/β)`, their derivatives
    /// `A_k' = β^{k−1} (k F_k(u) − u f_k(u))`, `u = δ/β`, and second
    /// derivatives
    /// `A_k'' = β^{k−2} (k(k−1) F_k − 2(k−1) u f_k + u² f_k')`.
    ///
    /// A cell straddling `β = 0` (where `u` is unbounded) falls back
    /// to the trivially valid `A_k ∈ β₊^k · [0, 1]` with no
    /// derivative.
    #[allow(clippy::type_complexity)]
    fn a_side(&self, beta: Ball, n: usize) -> (Vec<Ball>, Option<(Vec<Ball>, Vec<Ball>)>) {
        let mut val = vec![Ball::one(); n + 1];
        if beta.lo() <= 0.0 {
            let unit = Ball::new(0.0, 1.0);
            let beta_pow = powers(beta.clamp_unit(), n);
            for k in 1..=n {
                val[k] = beta_pow[k] * unit;
            }
            return (val, None);
        }
        let beta_pow = powers(beta, n);
        let u = self.delta / beta;
        let tri = ih_eval(self.n, u);
        let mut der = vec![Ball::zero(); n + 1];
        let mut der2 = vec![Ball::zero(); n + 1];
        for k in 1..=n {
            let f = tri.cdf[k];
            let d = tri.pdf[k];
            let dd = tri.dpdf[k];
            let kb = Ball::from_i64(k as i64);
            let k1 = Ball::from_i64(k as i64 - 1);
            val[k] = beta_pow[k] * f;
            der[k] = beta_pow[k - 1] * (kb * f - u * d);
            let inner = kb * k1 * f - Ball::from_i64(2) * k1 * (u * d) + u * u * dd;
            der2[k] = if k >= 2 {
                beta_pow[k - 2] * inner
            } else {
                inner / beta
            };
        }
        (val, Some((der, der2)))
    }

    /// Bin-1 factors `B_m = γ^m F_m(v)`, `v = (δ−mβ)/γ`, their
    /// derivatives `B_m' = γ^{m−1} (q f_m(v) − m F_m(v))` and second
    /// derivatives
    /// `B_m'' = γ^{m−2} (m(m−1) F_m − 2(m−1) q f_m + q² f_m')`, where
    /// `q = (δ−m)/γ` (note `v' = q/γ` under `γ = 1 − β`).
    ///
    /// Two windows are decided by *integer* tests, exactly: `3m ≤ n`
    /// means `δ ≥ m`, hence `v ≥ m` and `F_m = 1, f_m = 0` for every
    /// `β`; a cell with `(δ − mβ)` certainly non-positive has
    /// `B_m = B_m' = 0`. A cell straddling `β = 1` (where `v` is
    /// unbounded) falls back to `B_m ∈ γ₊^m · [0, 1]` with no
    /// derivative.
    #[allow(clippy::type_complexity)]
    fn b_side(
        &self,
        beta: Ball,
        gamma: Ball,
        n: usize,
    ) -> (Vec<Ball>, Option<(Vec<Ball>, Vec<Ball>)>) {
        let mut val = vec![Ball::zero(); n + 1];
        val[0] = Ball::one();
        if gamma.lo() <= 0.0 {
            let unit = Ball::new(0.0, 1.0);
            let gamma_pow = powers(gamma.clamp_unit(), n);
            for m in 1..=n {
                val[m] = if 3 * m <= n {
                    // δ ≥ m: the bin-1 sum always fits, F_m(v) = 1.
                    gamma_pow[m]
                } else {
                    gamma_pow[m] * unit
                };
            }
            return (val, None);
        }
        let gamma_pow = powers(gamma, n);
        let mut der = vec![Ball::zero(); n + 1];
        let mut der2 = vec![Ball::zero(); n + 1];
        for m in 1..=n {
            let mb = Ball::from_i64(m as i64);
            let m1 = Ball::from_i64(m as i64 - 1);
            if 3 * m <= n {
                val[m] = gamma_pow[m];
                der[m] = -(mb * gamma_pow[m - 1]);
                if m >= 2 {
                    der2[m] = mb * m1 * gamma_pow[m - 2];
                }
                continue;
            }
            let s = self.delta - mb * beta;
            if s.hi() <= 0.0 {
                // mβ ≥ δ across the cell: the bin-1 sum always
                // overflows, B_m ≡ 0 here.
                continue;
            }
            let v = s / gamma;
            let straddles = v.lo() < 0.0;
            let v_cl = if straddles { Ball::new(0.0, v.hi()) } else { v };
            let tri = ih_eval(m as u32, v_cl);
            let mut f = tri.cdf[m];
            let mut d = tri.pdf[m];
            let mut dd = tri.dpdf[m];
            if straddles {
                // Part of the cell has v < 0 where F_m = f_m = f_m' = 0;
                // widen so the enclosures cover both regimes.
                f = f.hull(&Ball::zero());
                d = d.hull(&Ball::zero());
                dd = dd.hull(&Ball::zero());
            }
            let q = (self.delta - mb) / gamma;
            val[m] = gamma_pow[m] * f;
            der[m] = gamma_pow[m - 1] * (q * d - mb * f);
            let inner = mb * m1 * f - Ball::from_i64(2) * m1 * (q * d) + q * q * dd;
            der2[m] = if m >= 2 {
                gamma_pow[m - 2] * inner
            } else {
                inner / gamma
            };
        }
        (val, Some((der, der2)))
    }
}

/// Intersection of two enclosures of the same quantity — sound
/// whenever both inputs are. Falls back to the first argument if
/// outward rounding left them (spuriously) disjoint.
fn meet(a: Ball, b: Ball) -> Ball {
    let lo = a.lo().max(b.lo());
    let hi = a.hi().min(b.hi());
    if lo <= hi {
        Ball::new(lo, hi)
    } else {
        a
    }
}

/// Powers `b^0..=b^n` by repeated ball multiplication.
fn powers(b: Ball, n: usize) -> Vec<Ball> {
    let mut out = Vec::with_capacity(n + 1);
    out.push(Ball::one());
    for i in 0..n {
        out.push(out[i] * b);
    }
    out
}

/// Pascal row `C(n, 0..=n)` as balls (exact while representable,
/// outward-rounded enclosures beyond 2⁵³).
fn binomial_row(n: u32) -> Vec<Ball> {
    let mut row = vec![Ball::one()];
    for m in 1..=n as usize {
        let mut next = Vec::with_capacity(m + 1);
        next.push(Ball::one());
        for k in 1..m {
            next.push(row[k - 1] + row[k]);
        }
        next.push(Ball::one());
        row = next;
    }
    row
}

/// Certifies the optimal threshold for `n` players at `δ = n/3`,
/// routing to the exact path for `n ≤` [`EXACT_MAX`] and the ball
/// path above it. `hint` (e.g. the previous `n`'s optimum) warms the
/// coarse search of the ball path.
///
/// # Errors
///
/// [`CertifyError::TooFewPlayers`] below `n = 2`;
/// [`CertifyError::Ambiguous`] when a sign test or candidate
/// separation refuses to certify within budget.
pub fn certify(n: u32, hint: Option<f64>) -> Result<CertifiedThreshold, CertifyError> {
    if n < 2 {
        return Err(CertifyError::TooFewPlayers { n });
    }
    if n <= EXACT_MAX {
        certify_exact(n)
    } else {
        certify_ball(n, hint)
    }
}

/// Certifies every `n = 2..=max_n`, warm-starting each ball search
/// from the previous optimum.
///
/// # Errors
///
/// Propagates the first [`CertifyError`]; `max_n < 2` yields
/// [`CertifyError::TooFewPlayers`].
pub fn build_table(max_n: u32) -> Result<ThresholdTable, CertifyError> {
    if max_n < 2 {
        return Err(CertifyError::TooFewPlayers { n: max_n });
    }
    let mut rows = Vec::with_capacity(max_n as usize - 1);
    let mut hint = None;
    for n in 2..=max_n {
        let row = certify(n, hint)?;
        hint = Some(0.5 * (row.beta.lo + row.beta.hi));
        rows.push(ThresholdRow::from_certified(&row));
    }
    Ok(ThresholdTable::new(rows))
}

/// Cheap re-certification of one published row: certifies
/// `P'(beta_lo) > 0 > P'(beta_hi)` with two ball evaluations (the
/// same condition the ball pipeline proved when it emitted the row).
/// Rows whose endpoints sit too close to the optimum for a ball sign
/// test — exact-path rows are this tight — fall back to a fresh exact
/// certification and an interval-consistency check.
#[must_use]
pub fn spot_check(n: u32, beta_lo: f64, beta_hi: f64) -> bool {
    if n < 2 || !(beta_lo > 0.0 && beta_lo <= beta_hi && beta_hi < 1.0) {
        return false;
    }
    let ev = Evaluator::new(n);
    let left = ev.eval(Ball::point(beta_lo)).dp;
    let right = ev.eval(Ball::point(beta_hi)).dp;
    if left.is_positive() && right.is_negative() {
        return true;
    }
    if n <= EXACT_MAX {
        if let Ok(row) = certify(n, None) {
            return row.beta.lo <= beta_hi && beta_lo <= row.beta.hi;
        }
    }
    false
}

// ---------------------------------------------------------------
// Ball path
// ---------------------------------------------------------------

/// Certifies via the ball pipeline: coarse scan → certified bracket →
/// bisection → value enclosure → global exclusion pass.
// xtask:allow(no-twin-f64): not an instantiation twin — the ball pipeline
// is an algorithmically distinct certification path over the generic core.
fn certify_ball(n: u32, hint: Option<f64>) -> Result<CertifiedThreshold, CertifyError> {
    let ev = Evaluator::new(n);
    let approx = coarse_argmax(&ev, hint);
    let (mut a, mut b) = bracket(&ev, approx)?;
    (a, b) = bisect(&ev, a, b)?;
    let mid = 0.5 * (a + b);
    // Report a bracket widened by one bisection target per side.
    // Points within a few 1e-12 of the true optimum sit in a
    // numerical dead zone — their derivative is smaller than the
    // interval evaluation noise of the cancelling sum `Σ dA·B + A·dB`
    // at the minimum cell width — so the global pass cannot exclude
    // them. Pushing the exclusion boundary a further BISECT_TARGET
    // out clears the dead zone by two orders of magnitude while the
    // enclosure stays comfortably inside WIDTH_TARGET.
    let a_out = (a - BISECT_TARGET).max(0.0);
    let b_out = (b + BISECT_TARGET).min(1.0);
    let p_mid = ev.eval(Ball::point(mid)).p;
    let p_lo = p_mid.lo();
    let p_at_a = ev.eval(Ball::point(a_out)).p.hi();
    let p_at_b = ev.eval(Ball::point(b_out)).p.hi();
    let p_hi = secant_cap(&ev, a_out, b_out, p_at_a, p_at_b)
        .min(1.0)
        .max(p_lo);
    if p_hi - p_lo > WIDTH_TARGET {
        return Err(CertifyError::Ambiguous {
            n,
            stage: "value-width",
        });
    }
    let mut pass = GlobalPass {
        ev: &ev,
        p_lo,
        budget: GLOBAL_EVAL_BUDGET,
    };
    let p_at_zero = ev.eval(Ball::point(0.0)).p.hi();
    let p_at_one = ev.eval(Ball::point(1.0)).p.hi();
    if !pass.excluded(0.0, a_out, p_at_zero, p_at_a, Side::Left, GLOBAL_DEPTH)
        || !pass.excluded(b_out, 1.0, p_at_b, p_at_one, Side::Right, GLOBAL_DEPTH)
    {
        return Err(CertifyError::Ambiguous {
            n,
            stage: "global-pass",
        });
    }
    Ok(CertifiedThreshold {
        n,
        beta: Interval {
            lo: a_out,
            hi: b_out,
        },
        p: Interval { lo: p_lo, hi: p_hi },
        method: Method::Ball,
    })
}

/// Upper bound on `sup P` over `[lo, hi]` from *tight endpoint*
/// evaluations plus one derivative enclosure over the cell.
///
/// By the mean value theorem every `x` in the cell satisfies both
/// `P(x) ≤ P(lo) + dhi·(x−lo)` and `P(x) ≤ P(hi) + (−dlo)·(hi−x)`
/// where `[dlo, dhi] ⊇ P'` over the cell; the two tangent lines cap
/// the cell at an apex at most `w·dhi·(−dlo)/(dhi−dlo)` above the
/// larger endpoint. Direct interval evaluation of `P` over the cell
/// inflates *linearly* with its width (the terms of the cancelling
/// sum decorrelate); this cap inflates only quadratically, which is
/// what makes both the bracket value enclosure and the global
/// exclusion sweep cheap. The apex term is computed in ball
/// arithmetic so its rounding stays outward.
fn secant_cap(ev: &Evaluator, lo: f64, hi: f64, p_at_lo: f64, p_at_hi: f64) -> f64 {
    let dp = ev.eval(Ball::new(lo, hi)).dp;
    let (dlo, dhi) = (dp.lo(), dp.hi());
    if dhi <= 0.0 {
        // Non-increasing across the cell: the supremum is at `lo`.
        return p_at_lo;
    }
    if dlo >= 0.0 {
        return p_at_hi;
    }
    let apex =
        (Ball::point(hi - lo) * Ball::point(dhi) * Ball::point(-dlo) / Ball::point(dhi - dlo)).hi();
    p_at_lo.max(p_at_hi) + apex
}

/// Approximate `argmax P` from midpoint evaluations: a grid scan
/// (narrow around `hint` when given) followed by ternary refinement.
fn coarse_argmax(ev: &Evaluator, hint: Option<f64>) -> f64 {
    let (mut lo, mut hi, steps) = match hint {
        Some(h) => (
            (h - 0.04).max(SCAN_MARGIN),
            (h + 0.04).min(1.0 - SCAN_MARGIN),
            16,
        ),
        None => (0.01, 0.99, 96),
    };
    let mut best = (lo, f64::NEG_INFINITY);
    for i in 0..=steps {
        let x = lo + (hi - lo) * f64::from(i) / f64::from(steps);
        let v = ev.eval(Ball::point(x)).p.midpoint();
        if v > best.1 {
            best = (x, v);
        }
    }
    let step = (hi - lo) / f64::from(steps);
    lo = (best.0 - step).max(SCAN_MARGIN);
    hi = (best.0 + step).min(1.0 - SCAN_MARGIN);
    for _ in 0..40 {
        let x1 = lo + (hi - lo) / 3.0;
        let x2 = hi - (hi - lo) / 3.0;
        let v1 = ev.eval(Ball::point(x1)).p.midpoint();
        let v2 = ev.eval(Ball::point(x2)).p.midpoint();
        if v1 < v2 {
            lo = x1;
        } else {
            hi = x2;
        }
    }
    0.5 * (lo + hi)
}

/// Finds `a < b` with certified `P'(a) > 0` and `P'(b) < 0` by
/// expanding around the coarse optimum.
fn bracket(ev: &Evaluator, approx: f64) -> Result<(f64, f64), CertifyError> {
    let mut h = BRACKET_STEP;
    let mut a = None;
    let mut b = None;
    while h < 0.5 {
        if a.is_none() {
            let x = (approx - h).max(EDGE_MARGIN);
            if ev.eval(Ball::point(x)).dp.is_positive() {
                a = Some(x);
            }
        }
        if b.is_none() {
            let x = (approx + h).min(1.0 - EDGE_MARGIN);
            if ev.eval(Ball::point(x)).dp.is_negative() {
                b = Some(x);
            }
        }
        if let (Some(a), Some(b)) = (a, b) {
            return Ok((a, b));
        }
        h *= 2.0;
    }
    Err(CertifyError::Ambiguous {
        n: ev.n,
        stage: "bracket",
    })
}

/// Shrinks a certified bracket by sign-certified bisection until its
/// width is at most [`BISECT_TARGET`] (or every probe near the
/// midpoint stays ambiguous, which is accepted once the width is
/// already below [`WIDTH_TARGET`]).
fn bisect(ev: &Evaluator, mut a: f64, mut b: f64) -> Result<(f64, f64), CertifyError> {
    for _ in 0..200 {
        if b - a <= BISECT_TARGET {
            return Ok((a, b));
        }
        let width = b - a;
        let mut advanced = false;
        // The exact midpoint may sit on the optimum where the sign is
        // genuinely undecidable; nearby offsets usually are not.
        for frac in [0.5, 0.375, 0.625, 0.25, 0.75] {
            let mid = a + width * frac;
            let dp = ev.eval(Ball::point(mid)).dp;
            if dp.is_positive() {
                a = mid;
                advanced = true;
                break;
            }
            if dp.is_negative() {
                b = mid;
                advanced = true;
                break;
            }
        }
        if !advanced {
            // Accept an ambiguous stall only while the bracket plus
            // the dead-zone margins still meets the width target.
            if b - a <= WIDTH_TARGET - 2.0 * BISECT_TARGET {
                return Ok((a, b));
            }
            return Err(CertifyError::Ambiguous {
                n: ev.n,
                stage: "bisect",
            });
        }
    }
    Err(CertifyError::Ambiguous {
        n: ev.n,
        stage: "bisect-budget",
    })
}

/// Which side of the certified bracket a cell lies on (fixes the
/// derivative sign that walks the cell toward the bracket).
#[derive(Clone, Copy)]
enum Side {
    Left,
    Right,
}

/// Adaptive exclusion sweep over everything outside the bracket.
struct GlobalPass<'a> {
    ev: &'a Evaluator,
    /// Certified lower bound on the optimal value `P*`.
    p_lo: f64,
    budget: u32,
}

impl GlobalPass<'_> {
    /// Proves no `β ∈ [lo, hi]` attains `P(β) ≥ P*`: the cell is out
    /// either by value (the secant/apex cap from its endpoint values
    /// and derivative enclosure stays below `P*`) or by a certified
    /// strict derivative sign pointing toward the bracket — then `P`
    /// strictly increases along a finite chain of excluded cells into
    /// the bracket, so no interior point can be the maximum. Splits
    /// and recurses otherwise, handing each child its shared endpoint
    /// evaluation. `p_at_lo` / `p_at_hi` are upper bounds on `P` at
    /// the cell endpoints.
    fn excluded(
        &mut self,
        lo: f64,
        hi: f64,
        p_at_lo: f64,
        p_at_hi: f64,
        side: Side,
        depth: u32,
    ) -> bool {
        if lo >= hi {
            return true;
        }
        if self.budget == 0 {
            return false;
        }
        self.budget -= 1;
        let r = self.ev.eval(Ball::new(lo, hi));
        let mid = 0.5 * (lo + hi);
        let pm = self.ev.eval(Ball::point(mid));
        // Centered form: over the cell, `P' ⊆ P'(mid) + P''(cell) ·
        // (cell − mid)`. The direct wide enclosure `r.dp` decorrelates
        // (its width is ~C·w for a large constant C), while the
        // centered form's width is point-width + |P''|·w — orders of
        // magnitude tighter on narrow cells. Both are sound, so take
        // their intersection.
        let dev = Ball::new(lo, hi) - Ball::point(mid);
        let dp = meet(r.dp, pm.dp + r.ddp * dev);
        let (dlo, dhi) = (dp.lo(), dp.hi());
        let monotone_toward_bracket = match side {
            Side::Left => dp.is_positive(),
            Side::Right => dp.is_negative(),
        };
        if monotone_toward_bracket {
            return true;
        }
        let cap = if dhi <= 0.0 {
            p_at_lo
        } else if dlo >= 0.0 {
            p_at_hi
        } else {
            let apex = (Ball::point(hi - lo) * Ball::point(dhi) * Ball::point(-dlo)
                / Ball::point(dhi - dlo))
            .hi();
            p_at_lo.max(p_at_hi) + apex
        };
        if cap.min(r.p.hi()) < self.p_lo {
            return true;
        }
        if depth == 0 || hi - lo < MIN_CELL {
            return false;
        }
        let p_at_mid = pm.p.hi();
        self.excluded(lo, mid, p_at_lo, p_at_mid, side, depth - 1)
            && self.excluded(mid, hi, p_at_mid, p_at_hi, side, depth - 1)
    }
}

// ---------------------------------------------------------------
// Exact path
// ---------------------------------------------------------------

/// A candidate maximizer: a rational enclosure of its location and of
/// `P` at it. Breakpoints are degenerate (point) candidates; interior
/// critical points carry their Sturm-refined root interval.
struct Candidate {
    lo: Rational,
    hi: Rational,
    v_lo: Rational,
    v_hi: Rational,
}

/// Certifies via exact rational maximization of the symbolic
/// piecewise polynomial.
fn certify_exact(n: u32) -> Result<CertifiedThreshold, CertifyError> {
    let capacity = Capacity::proportional(n as usize, 3);
    let pw =
        symmetric::analyze(n as usize, &capacity).map_err(|_| CertifyError::TooFewPlayers { n })?;
    // Progressively tighter root intervals until the winner separates.
    let mut tol = Rational::ratio(1, 1i64 << 44);
    for _ in 0..4 {
        let candidates = exact_candidates(&pw, &tol);
        if let Some((beta, p)) = separate_winner(candidates) {
            if beta.width().to_f64() > WIDTH_TARGET || p.width().to_f64() > WIDTH_TARGET {
                tol = &tol / &Rational::integer(256);
                continue;
            }
            return Ok(CertifiedThreshold {
                n,
                beta: outward(&beta.lo, &beta.hi),
                p: outward_prob(&p.lo, &p.hi),
                method: Method::Exact,
            });
        }
        tol = &tol / &Rational::integer(256);
    }
    Err(CertifyError::Ambiguous {
        n,
        stage: "exact-separation",
    })
}

/// Collects every possible maximizer of the piecewise polynomial:
/// all breakpoints (exact point values) and every piece-interior
/// critical point (Sturm-isolated derivative root, refined to `tol`,
/// valued via a Lipschitz bound).
fn exact_candidates(
    pw: &polynomial::PiecewisePolynomial<Rational>,
    tol: &Rational,
) -> Vec<Candidate> {
    let mut out = Vec::new();
    for bp in pw.breakpoints() {
        let v = pw.eval(bp).expect("breakpoints lie in the domain"); // xtask:allow(no-panic): breakpoints are inside the piecewise domain by construction
        out.push(Candidate {
            lo: bp.clone(),
            hi: bp.clone(),
            v_lo: v.clone(),
            v_hi: v,
        });
    }
    for (window, piece) in pw.breakpoints().windows(2).zip(pw.pieces()) {
        let d = piece.derivative();
        if d.degree().is_none_or(|deg| deg == 0) {
            // Constant or vanishing derivative: the piece is monotone
            // or flat, its extremes are the endpoint candidates above.
            continue;
        }
        // Lipschitz bound for P' on [0, 1] ⊇ the piece: Σ |coeffs|.
        let mut lipschitz = Rational::zero();
        for c in d.coeffs() {
            lipschitz = &lipschitz + &c.abs();
        }
        let half = Rational::ratio(1, 2);
        for iv in d.isolate_roots(&window[0], &window[1]) {
            let refined = refine_interval(&d, iv, tol);
            let mid = refined.midpoint();
            let value = piece.eval(&mid);
            let slack = &(&lipschitz * &refined.width()) * &half;
            out.push(Candidate {
                lo: refined.lo,
                hi: refined.hi,
                v_lo: &value - &slack,
                v_hi: &value + &slack,
            });
        }
    }
    out
}

/// Shrinks a Sturm isolating interval `(lo, hi]` by bisection until
/// its width is at most `tol`, preserving the unique root inside.
fn refine_interval(
    d: &Polynomial<Rational>,
    iv: Interval<Rational>,
    tol: &Rational,
) -> Interval<Rational> {
    let chain = SturmChain::new(d);
    let two = Rational::integer(2);
    let mut lo = iv.lo;
    let mut hi = iv.hi;
    while &(&hi - &lo) > tol {
        let mid = &(&lo + &hi) / &two;
        if chain.count_roots(&lo, &mid) == 1 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Interval { lo, hi }
}

/// Merges location-overlapping candidates into clusters and returns
/// the winning cluster's `(β, P)` rational enclosures — but only if
/// every other cluster's value certainly falls short.
#[allow(clippy::type_complexity)]
fn separate_winner(
    mut candidates: Vec<Candidate>,
) -> Option<(Interval<Rational>, Interval<Rational>)> {
    candidates.sort_by(|a, b| a.lo.cmp(&b.lo));
    let mut clusters: Vec<Candidate> = Vec::new();
    for c in candidates {
        match clusters.last_mut() {
            Some(last) if c.lo <= last.hi => {
                // Same location up to enclosure width: one maximizer.
                if c.hi > last.hi {
                    last.hi = c.hi;
                }
                if c.v_lo > last.v_lo {
                    last.v_lo = c.v_lo;
                }
                if c.v_hi > last.v_hi {
                    last.v_hi = c.v_hi;
                }
            }
            _ => clusters.push(c),
        }
    }
    let winner = clusters
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.v_lo.cmp(&b.v_lo))?;
    let (w_idx, w) = winner;
    for (i, c) in clusters.iter().enumerate() {
        if i != w_idx && c.v_hi >= w.v_lo {
            return None;
        }
    }
    Some((
        Interval {
            lo: w.lo.clone(),
            hi: w.hi.clone(),
        },
        Interval {
            lo: w.v_lo.clone(),
            hi: w.v_hi.clone(),
        },
    ))
}

/// Outward conversion of a rational interval to `f64` endpoints.
fn outward(lo: &Rational, hi: &Rational) -> Interval<f64> {
    Interval {
        lo: <Ball as Scalar>::from_rational(lo).lo(),
        hi: <Ball as Scalar>::from_rational(hi).hi(),
    }
}

/// Outward conversion clamped into `[0, 1]` (the value is a
/// probability, so the intersection stays an enclosure).
fn outward_prob(lo: &Rational, hi: &Rational) -> Interval<f64> {
    let iv = outward(lo, hi);
    Interval {
        lo: iv.lo.max(0.0),
        hi: iv.hi.min(1.0).max(iv.lo.max(0.0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{winning_probability_threshold, SingleThresholdAlgorithm};

    #[test]
    fn evaluator_encloses_exact_winning_probability() {
        // Ball P(β) must enclose the exact Theorem 5.1 value.
        for n in [2u32, 3, 5, 8] {
            let ev = Evaluator::new(n);
            let capacity = Capacity::proportional(n as usize, 3);
            for k in 1..=9i64 {
                let beta = Rational::ratio(k, 10);
                let algo = SingleThresholdAlgorithm::symmetric(n as usize, beta.clone()).unwrap();
                let exact = winning_probability_threshold(&algo, &capacity)
                    .unwrap()
                    .to_f64();
                let ball = ev.eval(<Ball as Scalar>::from_rational(&beta)).p;
                assert!(
                    ball.lo() - 1e-12 <= exact && exact <= ball.hi() + 1e-12,
                    "n={n}, β={beta}: exact {exact} not in [{}, {}]",
                    ball.lo(),
                    ball.hi()
                );
                assert!(
                    ball.width() < 1e-9,
                    "n={n}, β={beta}: width {}",
                    ball.width()
                );
            }
        }
    }

    #[test]
    fn evaluator_derivative_matches_symbolic_derivative() {
        // Ball P'(β) must enclose the exact piecewise derivative.
        for n in [3u32, 5] {
            let ev = Evaluator::new(n);
            let capacity = Capacity::proportional(n as usize, 3);
            let pw = symmetric::analyze(n as usize, &capacity).unwrap();
            let dpw = pw.derivative();
            for k in [15i64, 35, 55, 65, 85] {
                let beta = Rational::ratio(k, 100);
                let exact = dpw.eval(&beta).unwrap().to_f64();
                let ball = ev.eval(<Ball as Scalar>::from_rational(&beta)).dp;
                assert!(
                    ball.lo() - 1e-9 <= exact && exact <= ball.hi() + 1e-9,
                    "n={n}, β={beta}: exact P' {exact} not in [{}, {}]",
                    ball.lo(),
                    ball.hi()
                );
            }
        }
    }

    #[test]
    fn exact_path_reproduces_paper_n3_optimum() {
        // δ = 1 is the paper's n = 3 headline case; δ = n/3 gives the
        // same capacity, so the certified row must pin
        // β* = 1 − √(1/7), P* ≈ 0.544631.
        let row = certify(3, None).unwrap();
        assert_eq!(row.method, Method::Exact);
        let beta_star = 1.0 - (1.0f64 / 7.0).sqrt();
        assert!(
            row.beta.lo <= beta_star && beta_star <= row.beta.hi,
            "enclosure [{}, {}]",
            row.beta.lo,
            row.beta.hi
        );
        assert!(row.beta.hi - row.beta.lo <= WIDTH_TARGET);
        assert!(row.p.lo <= 0.5446 + 1e-3 && row.p.hi >= 0.5446 - 1e-3);
        assert!(row.p.hi - row.p.lo <= WIDTH_TARGET);
    }

    #[test]
    fn ball_and_exact_paths_agree_where_both_apply() {
        // Force the ball pipeline at small n and compare with exact.
        for n in [4u32, 6] {
            let exact = certify_exact(n).unwrap();
            let ball = certify_ball(n, None).unwrap();
            assert!(
                ball.beta.lo <= exact.beta.hi && exact.beta.lo <= ball.beta.hi,
                "n={n}: exact [{}, {}] vs ball [{}, {}]",
                exact.beta.lo,
                exact.beta.hi,
                ball.beta.lo,
                ball.beta.hi
            );
            assert!(
                ball.p.lo <= exact.p.hi && exact.p.lo <= ball.p.hi,
                "n={n}: P enclosures disjoint"
            );
            assert!(ball.beta.hi - ball.beta.lo <= WIDTH_TARGET, "n={n}");
        }
    }

    #[test]
    fn ball_path_certifies_a_large_n() {
        let row = certify(48, None).unwrap();
        assert_eq!(row.method, Method::Ball);
        assert!(row.beta.hi - row.beta.lo <= WIDTH_TARGET);
        assert!(row.p.hi - row.p.lo <= WIDTH_TARGET);
        assert!(row.beta.lo > 0.0 && row.beta.hi < 1.0);
        assert!(spot_check(48, row.beta.lo, row.beta.hi));
    }

    #[test]
    fn spot_check_accepts_published_rows_and_rejects_junk() {
        let row = certify(12, None).unwrap();
        assert!(spot_check(12, row.beta.lo, row.beta.hi));
        // An interval near the optimum but on one side of it has the
        // same derivative sign at both ends: not a certified bracket.
        assert!(!spot_check(12, 0.1, 0.2));
        assert!(!spot_check(1, 0.4, 0.6));
        assert!(!spot_check(12, 0.0, 0.5));
    }

    #[test]
    fn too_few_players_is_rejected() {
        assert_eq!(certify(1, None), Err(CertifyError::TooFewPlayers { n: 1 }));
        assert_eq!(
            build_table(1).unwrap_err(),
            CertifyError::TooFewPlayers { n: 1 }
        );
    }

    #[test]
    fn build_table_rows_are_contiguous_and_tight() {
        let table = build_table(14).unwrap();
        assert_eq!(table.rows().len(), 13);
        for (i, row) in table.rows().iter().enumerate() {
            assert_eq!(row.n, i as u32 + 2);
            assert!(row.beta_lo <= row.beta_hi);
            assert!(row.beta_hi - row.beta_lo <= WIDTH_TARGET, "n={}", row.n);
            assert!(row.p_hi - row.p_lo <= WIDTH_TARGET, "n={}", row.n);
        }
    }
}
