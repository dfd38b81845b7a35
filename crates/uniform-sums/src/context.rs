//! A memoized evaluation context for the analytic hot paths.
//!
//! Threshold sweeps and coordinate-ascent optimizers evaluate the
//! same winning-probability formulas thousands of times with mostly
//! repeated combinatorial sub-terms: factorials, binomial rows, and —
//! at a fixed deadline `δ` — whole Irwin–Hall CDF tables
//! `F_0(t), …, F_n(t)` (the per-`(n, δ)` inclusion–exclusion term
//! table Theorem 4.1 consumes). [`EvalContext`] caches all three, so
//! an optimizer that threads one context through a sweep pays for
//! each table once instead of once per grid point.
//!
//! A table is one [`crate::irwin_hall_cdf_row`]: one B-spline
//! triangle in `f64` and `rational::Ball`, exact sums in `Rational`.
//!
//! # Examples
//!
//! ```
//! use rational::Rational;
//! use uniform_sums::{irwin_hall_cdf, EvalContext};
//!
//! let mut ctx = EvalContext::<Rational>::new();
//! let t = Rational::ratio(3, 2);
//! // First call computes the m = 0..=3 table; the second is a hit.
//! assert_eq!(ctx.irwin_hall_cdf(3, &t), irwin_hall_cdf(3, &t));
//! assert_eq!(ctx.irwin_hall_cdf(3, &t), Rational::ratio(1, 2));
//! assert_eq!(ctx.hits(), 1);
//! ```

use rational::Scalar;

/// Cached Irwin–Hall tables kept before first-in-first-out eviction.
///
/// An optimizer run touches a handful of distinct `(n, t)` pairs (one
/// per deadline value under study); the bound only exists so an
/// adversarial caller sweeping `t` cannot grow the context without
/// limit.
const IH_TABLE_CAP: usize = 32;

/// One cached Irwin–Hall CDF table: `row[m] = F_m(t)` for `m = 0..=n`.
#[derive(Clone, Debug)]
struct IhTable<S> {
    n: u32,
    t: S,
    row: Vec<S>,
}

/// Memoized combinatorial state threaded through generic evaluations.
///
/// All methods take `&mut self` (they fill caches on miss) and return
/// owned scalars. A context is cheap to create, so cold-path callers
/// that evaluate once can make a throwaway one; the payoff comes from
/// reuse across a sweep — see the `generic_core` bench.
#[derive(Clone, Debug, Default)]
pub struct EvalContext<S> {
    /// `factorials[n] = n!`, grown on demand.
    factorials: Vec<S>,
    /// Pascal's triangle: `binomials[n][k] = C(n, k)`.
    binomials: Vec<Vec<S>>,
    /// Bounded store of per-`(n, t)` Irwin–Hall CDF tables.
    ih_tables: Vec<IhTable<S>>,
    /// Irwin–Hall table lookups answered from cache (diagnostics).
    hits: u64,
    /// Irwin–Hall tables computed because no cached one applied
    /// (diagnostics).
    misses: u64,
}

impl<S: Scalar> EvalContext<S> {
    /// Creates an empty context.
    #[must_use]
    pub fn new() -> EvalContext<S> {
        EvalContext {
            factorials: Vec::new(),
            binomials: Vec::new(),
            ih_tables: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Number of Irwin–Hall table lookups answered from cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of Irwin–Hall tables computed because no cached table
    /// covered the request (the complement of [`EvalContext::hits`]).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// `n!`, from the cached prefix table.
    pub fn factorial(&mut self, n: u32) -> S {
        let n = n as usize;
        if self.factorials.is_empty() {
            self.factorials.push(S::one());
        }
        while self.factorials.len() <= n {
            let len = self.factorials.len();
            let last = self.factorials[len - 1].clone();
            self.factorials.push(last * S::from_int(len as i64));
        }
        self.factorials[n].clone()
    }

    /// `C(n, k)`, from cached Pascal rows. Zero when `k > n`.
    pub fn binomial(&mut self, n: u32, k: u32) -> S {
        if k > n {
            return S::zero();
        }
        let n = n as usize;
        while self.binomials.len() <= n {
            let m = self.binomials.len();
            let mut row = Vec::with_capacity(m + 1);
            row.push(S::one());
            for k in 1..m {
                let prev = &self.binomials[m - 1];
                row.push(prev[k - 1].clone() + prev[k].clone());
            }
            if m > 0 {
                row.push(S::one());
            }
            self.binomials.push(row);
        }
        self.binomials[n][k as usize].clone()
    }

    /// Memoized Irwin–Hall CDF `F_m(t)` (Corollary 2.6).
    ///
    /// Cache granularity is a whole `(n, t)` table, because the
    /// consumers (Theorems 4.1/5.1 at deadline `δ`) always need every
    /// `F_k(δ)` for `k = 0..=n` of the same evaluation.
    pub fn irwin_hall_cdf(&mut self, m: u32, t: &S) -> S {
        let row = self.irwin_hall_cdf_table(m, t);
        row[m as usize].clone()
    }

    /// The memoized table `[F_0(t), …, F_n(t)]` of Irwin–Hall CDF
    /// values at `t`.
    ///
    /// On a miss the table is computed once and stored; at most
    /// `IH_TABLE_CAP` (32) tables are kept, evicted first-in-first-out.
    /// A larger cached table serves a smaller `n` from its prefix,
    /// bit-identical to a fresh smaller table.
    pub fn irwin_hall_cdf_table(&mut self, n: u32, t: &S) -> Vec<S> {
        if let Some(table) = self
            .ih_tables
            .iter()
            .find(|table| table.n >= n && table.t == *t)
        {
            self.hits += 1;
            return table.row[..=n as usize].to_vec();
        }
        self.misses += 1;
        let row = crate::irwin_hall_cdf_row(n, t);
        if self.ih_tables.len() >= IH_TABLE_CAP {
            self.ih_tables.remove(0);
        }
        self.ih_tables.push(IhTable {
            n,
            t: t.clone(),
            row: row.clone(),
        });
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rational::{binomial_rational, factorial_rational, Rational};

    #[test]
    fn cached_combinatorics_match_direct_helpers() {
        let mut ctx = EvalContext::<Rational>::new();
        // Out-of-order access exercises the grow-on-demand paths.
        for n in [7u32, 2, 11, 0, 5] {
            assert_eq!(ctx.factorial(n), factorial_rational(n));
            for k in 0..=n + 2 {
                assert_eq!(ctx.binomial(n, k), binomial_rational(n, k), "C({n},{k})");
            }
        }
    }

    #[test]
    fn memoized_irwin_hall_matches_direct_and_hits() {
        let mut ctx = EvalContext::<Rational>::new();
        let t = Rational::ratio(7, 4);
        // Descending order: the m = 6 table subsumes every smaller m
        // at the same t, so all later lookups are hits.
        for m in (0..=6u32).rev() {
            assert_eq!(
                ctx.irwin_hall_cdf(m, &t),
                crate::irwin_hall_cdf_in(m, &t),
                "m = {m}"
            );
        }
        assert_eq!(ctx.hits(), 6);
    }

    #[test]
    fn table_prefix_is_served_from_larger_table() {
        let mut ctx = EvalContext::<f64>::new();
        let full = ctx.irwin_hall_cdf_table(8, &2.5);
        let prefix = ctx.irwin_hall_cdf_table(3, &2.5);
        assert_eq!(ctx.hits(), 1);
        assert_eq!(ctx.misses(), 1);
        assert_eq!(&full[..4], &prefix[..]);
    }

    #[test]
    fn eviction_bounds_the_store() {
        let mut ctx = EvalContext::<f64>::new();
        for k in 0..(2 * IH_TABLE_CAP) {
            let t = 0.25 + k as f64 / 64.0;
            let _ = ctx.irwin_hall_cdf_table(4, &t);
        }
        assert!(ctx.ih_tables.len() <= IH_TABLE_CAP);
        // The most recent table is still cached.
        let t_last = 0.25 + (2 * IH_TABLE_CAP - 1) as f64 / 64.0;
        let _ = ctx.irwin_hall_cdf_table(4, &t_last);
        assert_eq!(ctx.hits(), 1);
    }

    #[test]
    fn float_context_tracks_exact_context() {
        let mut exact = EvalContext::<Rational>::new();
        let mut float = EvalContext::<f64>::new();
        for m in 0..=8u32 {
            for k in 0..=16 {
                let t = Rational::ratio(k, 2);
                let e = exact.irwin_hall_cdf(m, &t).to_f64();
                let f = float.irwin_hall_cdf(m, &t.to_f64());
                assert!((e - f).abs() < 1e-10, "m={m}, t={t}");
            }
        }
    }

    #[test]
    fn float_context_tracks_exact_context_in_the_upper_tail() {
        // Regression: the alternating sum without midpoint reflection
        // lost ~1e-4 at (m, t) = (30, 28); the whole upper tail must
        // sit within the probability tolerance.
        let mut exact = EvalContext::<Rational>::new();
        let mut float = EvalContext::<f64>::new();
        for t_num in 46..=60i64 {
            let t = Rational::ratio(t_num, 2);
            let e = exact.irwin_hall_cdf(30, &t).to_f64();
            let f = float.irwin_hall_cdf(30, &t.to_f64());
            assert!(
                (e - f).abs() < contracts::tolerances::PROB_EPS,
                "m=30, t={t}: float {f} vs exact {e}"
            );
        }
    }
}
