//! Derivative-free numeric optimization over *asymmetric* parameter
//! vectors.
//!
//! The symbolic pipelines ([`crate::oblivious`], [`crate::symmetric`])
//! optimize along the symmetric diagonal, which the paper proves is
//! where the optimum lives. This module searches the full
//! `n`-dimensional cube `[0,1]^n` numerically (multi-start cyclic
//! coordinate ascent with golden-section line searches) so the
//! symmetry of the optimum can be *confirmed* rather than assumed.
//!
//! The objectives are the float instantiations of the generic winning
//! cores, threaded through one shared [`EvalContext`] per search: the
//! per-`(n, δ)` Irwin–Hall table is computed on the first evaluation
//! and served from cache for the rest of the run.

use crate::{
    winning_probability_oblivious_in, winning_probability_threshold_in, ModelError,
    MAX_EXACT_THRESHOLD_PLAYERS,
};
use uniform_sums::EvalContext;

/// Result of a numeric maximization over `[0,1]^n`.
#[derive(Clone, Debug, PartialEq)]
pub struct NumericOptimum {
    /// The maximizing parameter vector found.
    pub params: Vec<f64>,
    /// The achieved winning probability.
    pub value: f64,
    /// Number of objective evaluations spent.
    pub evaluations: u64,
}

impl NumericOptimum {
    /// Largest pairwise deviation between parameters — zero for a
    /// perfectly symmetric optimum, and zero by convention when there
    /// are fewer than two parameters (no pair exists to deviate).
    #[must_use]
    pub fn asymmetry(&self) -> f64 {
        if self.params.len() < 2 {
            return 0.0;
        }
        let min = self.params.iter().copied().fold(f64::INFINITY, f64::min);
        let max = self
            .params
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        max - min
    }
}

/// Options controlling the search.
#[derive(Clone, Debug, PartialEq)]
pub struct SearchOptions {
    /// Number of random restarts (plus a few deterministic ones).
    pub restarts: usize,
    /// Per-coordinate line-search tolerance.
    pub tolerance: f64,
    /// Maximum coordinate-ascent sweeps per restart.
    pub max_sweeps: usize,
    /// Seed for the deterministic pseudo-random restart points.
    pub seed: u64,
}

/// Default per-coordinate line-search tolerance: tight enough to pin
/// the paper's optima to ~9 digits, loose enough to keep the doctest
/// searches fast.
const DEFAULT_TOLERANCE: f64 = 1e-9;

impl Default for SearchOptions {
    fn default() -> SearchOptions {
        SearchOptions {
            restarts: 8,
            tolerance: DEFAULT_TOLERANCE,
            max_sweeps: 60,
            seed: 0x5eed,
        }
    }
}

/// Maximizes the single-threshold winning probability over all
/// threshold vectors in `[0,1]^n`.
///
/// # Errors
///
/// Returns [`ModelError`] if `n < 2` or `n >`
/// [`MAX_EXACT_THRESHOLD_PLAYERS`]: the search evaluates asymmetric
/// vectors, whose enumeration is capped there.
///
/// # Examples
///
/// ```
/// use decision::numeric::{maximize_threshold, SearchOptions};
///
/// // n = 3, δ = 1: converges to the symmetric (0.622, 0.622, 0.622).
/// let opt = maximize_threshold(3, 1.0, &SearchOptions::default()).unwrap();
/// assert!((opt.value - 0.5447).abs() < 1e-3);
/// assert!(opt.asymmetry() < 1e-3);
/// ```
pub fn maximize_threshold(
    n: usize,
    delta: f64,
    options: &SearchOptions,
) -> Result<NumericOptimum, ModelError> {
    if n > MAX_EXACT_THRESHOLD_PLAYERS {
        return Err(ModelError::TooManyPlayersForExact {
            n,
            max: MAX_EXACT_THRESHOLD_PLAYERS,
        });
    }
    let mut ctx = EvalContext::new();
    maximize(n, options, &mut |params| {
        // xtask:allow(no-panic): n is range-checked before any objective call
        winning_probability_threshold_in(&mut ctx, params, &delta).expect("validated n")
    })
}

/// Maximizes the oblivious winning probability over all probability
/// vectors in `[0,1]^n`.
///
/// # Errors
///
/// Returns [`ModelError`] if `n < 2` or `n > 22`.
///
/// ```
/// use decision::numeric::{maximize_oblivious, SearchOptions};
///
/// // The global optimum over the closed cube is a deterministic
/// // 2/1 partition (value F_2(1)·F_1(1) = 1/2), a boundary corner
/// // outside the scope of Theorem 4.3's interior analysis.
/// let opt = maximize_oblivious(3, 1.0, &SearchOptions::default()).unwrap();
/// assert!((opt.value - 0.5).abs() < 1e-6);
/// assert!(opt.asymmetry() > 0.99);
/// ```
pub fn maximize_oblivious(
    n: usize,
    delta: f64,
    options: &SearchOptions,
) -> Result<NumericOptimum, ModelError> {
    let mut ctx = EvalContext::new();
    maximize(n, options, &mut |params| {
        // xtask:allow(no-panic): n is range-checked before any objective call
        winning_probability_oblivious_in(&mut ctx, params, &delta).expect("validated n")
    })
}

fn maximize(
    n: usize,
    options: &SearchOptions,
    objective: &mut dyn FnMut(&[f64]) -> f64,
) -> Result<NumericOptimum, ModelError> {
    if n < 2 {
        return Err(ModelError::TooFewPlayers { n });
    }
    if n > 22 {
        return Err(ModelError::TooManyPlayersForExact { n, max: 22 });
    }
    let mut evaluations = 0u64;
    let mut best: Option<(Vec<f64>, f64)> = None;
    let mut rng = XorShift::new(options.seed);

    let mut starts: Vec<Vec<f64>> = vec![
        vec![0.5; n],
        vec![0.25; n],
        vec![0.75; n],
        (0..n).map(|i| (i + 1) as f64 / (n + 1) as f64).collect(),
    ];
    for _ in 0..options.restarts {
        starts.push((0..n).map(|_| rng.next_unit()).collect());
    }

    for start in starts {
        let (params, value) = coordinate_ascent(start, objective, options, &mut evaluations);
        if best
            .as_ref()
            .is_none_or(|(_, b)| ordered(value) > ordered(*b))
        {
            best = Some((params, value));
        }
    }
    let (params, value) = best.expect("at least one start"); // xtask:allow(no-panic): the start list is statically nonempty
    Ok(NumericOptimum {
        params,
        value,
        evaluations,
    })
}

/// Total-order key for maximization: NaN sorts below every real value,
/// so a NaN objective can never displace a finite incumbent and a
/// finite probe always displaces a NaN one. (Plain `>` on f64 gets
/// both of those wrong — any comparison with NaN is `false`, which
/// used to freeze the ascent whenever an objective evaluation went
/// NaN and to let NaN probes poison the golden-section bracket.)
fn ordered(v: f64) -> f64 {
    if v.is_nan() {
        f64::NEG_INFINITY
    } else {
        v
    }
}

/// Cyclic coordinate ascent: golden-section maximization of each
/// coordinate in turn until a sweep no longer improves.
///
/// Steps are clamped to non-decreasing (ordered) value: a line search
/// that comes back worse — or NaN — leaves the coordinate untouched.
fn coordinate_ascent(
    mut params: Vec<f64>,
    objective: &mut dyn FnMut(&[f64]) -> f64,
    options: &SearchOptions,
    evaluations: &mut u64,
) -> (Vec<f64>, f64) {
    let mut value = objective(&params);
    *evaluations += 1;
    for _ in 0..options.max_sweeps {
        let before = value;
        for k in 0..params.len() {
            let (x, v) = golden_section(
                |x| {
                    let mut trial = params.clone();
                    trial[k] = x;
                    objective(&trial)
                },
                0.0,
                1.0,
                options.tolerance,
                evaluations,
            );
            if ordered(v) > ordered(value) {
                params[k] = x;
                value = v;
            }
        }
        // A NaN sweep delta (possible only while the incumbent is
        // still NaN) also counts as converged instead of spinning
        // through the full sweep budget.
        let gain = value - before;
        if gain.is_nan() || gain < options.tolerance {
            break;
        }
    }
    (params, value)
}

/// Golden-section search for the maximum of a unimodal-ish `f` on
/// `[lo, hi]`.
///
/// Returns the best point *seen* (probes and final midpoint), not the
/// final midpoint itself — on non-unimodal or partially-NaN
/// objectives the bracket can drift away from the best probe, and the
/// midpoint alone used to discard it.
fn golden_section(
    mut f: impl FnMut(f64) -> f64,
    mut lo: f64,
    mut hi: f64,
    tol: f64,
    evaluations: &mut u64,
) -> (f64, f64) {
    const INV_PHI: f64 = 0.618_033_988_749_894_8;
    fn update_best(best: &mut (f64, f64), x: f64, v: f64) {
        if ordered(v) > ordered(best.1) {
            *best = (x, v);
        }
    }
    let mut x1 = hi - INV_PHI * (hi - lo);
    let mut x2 = lo + INV_PHI * (hi - lo);
    let mut f1 = f(x1);
    let mut f2 = f(x2);
    *evaluations += 2;
    let mut best = (x1, f1);
    update_best(&mut best, x2, f2);
    while hi - lo > tol {
        if ordered(f1) < ordered(f2) {
            lo = x1;
            x1 = x2;
            f1 = f2;
            x2 = lo + INV_PHI * (hi - lo);
            f2 = f(x2);
            update_best(&mut best, x2, f2);
        } else {
            hi = x2;
            x2 = x1;
            f2 = f1;
            x1 = hi - INV_PHI * (hi - lo);
            f1 = f(x1);
            update_best(&mut best, x1, f1);
        }
        *evaluations += 1;
    }
    let mid = 0.5 * (lo + hi);
    let fm = f(mid);
    *evaluations += 1;
    update_best(&mut best, mid, fm);
    best
}

/// Minimal xorshift64* generator: deterministic restart points with no
/// external dependency.
struct XorShift {
    state: u64,
}

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift { state: seed.max(1) }
    }

    fn next_unit(&mut self) -> f64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let mantissa = self.state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11;
        mantissa as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SearchOptions {
        SearchOptions {
            restarts: 3,
            tolerance: 1e-8,
            max_sweeps: 40,
            seed: 42,
        }
    }

    #[test]
    fn threshold_n3_delta1_converges_to_paper_optimum() {
        // For n = 3, δ = 1 the global optimum over the whole cube is
        // the symmetric one (corner partitions only reach 1/2).
        let opt = maximize_threshold(3, 1.0, &quick()).unwrap();
        let beta_star = 1.0 - (1.0f64 / 7.0).sqrt();
        assert!((opt.value - 0.544_631).abs() < 1e-4, "value {}", opt.value);
        assert!(opt.asymmetry() < 1e-3, "asymmetry {}", opt.asymmetry());
        for p in &opt.params {
            assert!((p - beta_star).abs() < 1e-3, "param {p}");
        }
    }

    #[test]
    fn oblivious_global_optimum_is_a_deterministic_split() {
        // Theorem 4.3's vanishing-gradient analysis characterizes the
        // interior stationary point α = 1/2, but the *global* maximum
        // over the closed cube sits at a deterministic corner: fix a
        // balanced partition of the players. For n = 2, δ = 1 that
        // wins with certainty.
        let opt = maximize_oblivious(2, 1.0, &quick()).unwrap();
        assert!((opt.value - 1.0).abs() < 1e-6, "value {}", opt.value);
        assert!(opt.asymmetry() > 0.99, "asymmetry {}", opt.asymmetry());
        // n = 4, δ = 1: the best split is 2/2 with F_2(1)² = 1/4,
        // which also beats the symmetric stationary point.
        let sym = crate::oblivious::optimal_value(4, &crate::Capacity::unit())
            .unwrap()
            .to_f64();
        let opt4 = maximize_oblivious(4, 1.0, &quick()).unwrap();
        assert!((opt4.value - 0.25).abs() < 1e-6, "value {}", opt4.value);
        assert!(opt4.value > sym);
    }

    #[test]
    fn threshold_global_optimum_n4_is_a_corner_partition() {
        // At n = 4, δ = 4/3 the global optimum over the threshold cube
        // is the deterministic 2/2 partition a = (1,1,0,0) with value
        // F_2(4/3)^2 = (7/9)^2 = 49/81 — far above the symmetric
        // optimum 0.42854 at β* ≈ 0.678 that the paper analyzes.
        let opt = maximize_threshold(4, 4.0 / 3.0, &quick()).unwrap();
        assert!(
            (opt.value - 49.0 / 81.0).abs() < 1e-6,
            "value {}",
            opt.value
        );
        assert!(opt.asymmetry() > 0.99, "asymmetry {}", opt.asymmetry());
        let ones = opt.params.iter().filter(|p| **p > 0.99).count();
        let zeros = opt.params.iter().filter(|p| **p < 0.01).count();
        assert_eq!((ones, zeros), (2, 2), "params {:?}", opt.params);
    }

    #[test]
    fn rejects_invalid_sizes() {
        assert!(maximize_threshold(1, 1.0, &quick()).is_err());
        assert!(maximize_oblivious(23, 1.0, &quick()).is_err());
        // The threshold search evaluates asymmetric vectors, so it
        // stops at their enumeration cap, before any evaluation.
        assert!(matches!(
            maximize_threshold(15, 5.0, &quick()),
            Err(ModelError::TooManyPlayersForExact { n: 15, max: 14 })
        ));
    }

    #[test]
    fn asymmetry_of_degenerate_vectors_is_zero() {
        let empty = NumericOptimum {
            params: vec![],
            value: 0.0,
            evaluations: 0,
        };
        assert_eq!(empty.asymmetry(), 0.0);
        let singleton = NumericOptimum {
            params: vec![0.7],
            value: 0.0,
            evaluations: 0,
        };
        assert_eq!(singleton.asymmetry(), 0.0);
        let pair = NumericOptimum {
            params: vec![0.25, 0.75],
            value: 0.0,
            evaluations: 0,
        };
        assert!((pair.asymmetry() - 0.5).abs() < f64::EPSILON);
    }

    #[test]
    fn xorshift_is_deterministic_and_in_unit_interval() {
        let mut a = XorShift::new(7);
        let mut b = XorShift::new(7);
        for _ in 0..100 {
            let x = a.next_unit();
            assert_eq!(x, b.next_unit());
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn golden_section_finds_parabola_peak() {
        let mut evals = 0;
        let (x, v) = golden_section(|x| -(x - 0.3) * (x - 0.3), 0.0, 1.0, 1e-10, &mut evals);
        assert!((x - 0.3).abs() < 1e-8);
        assert!(v.abs() < 1e-15);
        assert!(evals > 0);
    }

    #[test]
    fn golden_section_survives_a_nan_region() {
        // Regression: with plain `<` comparisons the bracket shrinks
        // *into* the NaN region (every NaN compare reads as "not
        // better", collapsing hi toward lo = 0) and the returned
        // midpoint evaluates to NaN. The ordered comparison steers
        // away and the best-seen tracking returns the true peak.
        let mut evals = 0;
        let f = |x: f64| {
            if x < 0.2 {
                f64::NAN
            } else {
                -(x - 0.25) * (x - 0.25)
            }
        };
        let (x, v) = golden_section(f, 0.0, 1.0, 1e-9, &mut evals);
        assert!(v.is_finite(), "returned value {v}");
        assert!((x - 0.25).abs() < 1e-6, "returned point {x}");
    }

    #[test]
    fn golden_section_returns_best_seen_not_midpoint() {
        // Regression: with a coarse tolerance the final bracket is
        // wide and its midpoint is strictly worse than the best probe;
        // the old implementation returned the midpoint and discarded
        // the better point it had already evaluated.
        let mut evals = 0;
        let (x, v) = golden_section(|x| -(x - 0.3) * (x - 0.3), 0.0, 1.0, 0.4, &mut evals);
        // Best probe in this trace is x ≈ 0.236 (value ≈ −0.0041);
        // the final bracket midpoint is x ≈ 0.191 (value ≈ −0.0119).
        assert!(v > -0.005, "returned value {v}");
        assert!((x - 0.236).abs() < 1e-2, "returned point {x}");
    }

    #[test]
    fn coordinate_ascent_escapes_a_nan_start() {
        // Regression: starting inside a NaN region froze the old
        // ascent — `v > value` is false for every v once value is NaN,
        // so no step was ever accepted and the NaN start came back
        // unchanged (after burning the full sweep budget).
        let mut evals = 0;
        let objective = |p: &[f64]| {
            if p.iter().all(|x| *x < 0.2) {
                f64::NAN
            } else {
                -p.iter().map(|x| (x - 0.75) * (x - 0.75)).sum::<f64>()
            }
        };
        let (params, value) =
            coordinate_ascent(vec![0.1, 0.1], &mut { objective }, &quick(), &mut evals);
        assert!(value > -1e-6, "value {value}");
        for p in &params {
            assert!((p - 0.75).abs() < 1e-4, "param {p}");
        }
    }
}
