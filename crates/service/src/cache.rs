//! The concurrent read-through analytic cache.
//!
//! Analytic answers are pure functions of their query, so the daemon
//! memoizes them at two levels, both keyed by the **bit pattern** of
//! the floats involved (distinct NaN payloads cannot reach the cache
//! — the wire layer rejects non-finite numbers):
//!
//! 1. an *evaluation context* per `(n, δ)` — a [`SharedContext`]
//!    whose Irwin–Hall tables are built once and shared by every
//!    query that lands on the same capacity, including queries with
//!    *different* rule parameters;
//! 2. a *result memo* per context — the finished answer of each
//!    distinct query, served in O(1) on repeat.
//!
//! Answers are bit-identical to a cold, single-threaded
//! [`EvalContext`](uniform_sums::EvalContext) evaluation of the same
//! query: the memoized tables are themselves pure functions of their
//! keys, so warm and cold evaluations run the exact same float
//! program (property-tested in `tests/bit_identity.rs`).
//!
//! Locking is layered to stay off the hot path: the entry map is
//! behind an [`RwLock`] that repeat traffic only ever read-locks, and
//! entry handles are `Arc`s cloned *out* of the guard, so no map lock
//! is held while a (possibly expensive) evaluation runs.

use crate::query::{CacheStatus, RuleFamily, RuleSpec};
use decision::certified::{ThresholdRow, ThresholdTable};
use decision::numeric::{self, NumericOptimum, SearchOptions};
use decision::{
    winning_probability_threshold_in, ModelError, ObliviousAlgorithm, SingleThresholdAlgorithm,
};
use simulator::AnalyticSweepPoint;
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};
use uniform_sums::SharedContext;

/// One `(n, δ)` slot: the shared evaluation context plus the memo of
/// finished answers computed under it.
#[derive(Debug, Default)]
struct Entry {
    ctx: SharedContext<f64>,
    results: RwLock<HashMap<ResultKey, CachedAnswer>>,
}

/// A finished-answer key: the query with its floats frozen to bits.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum ResultKey {
    PWin {
        family: RuleFamily,
        param_bits: Vec<u64>,
    },
    Optimal {
        family: RuleFamily,
    },
    Sweep {
        grid: usize,
    },
}

#[derive(Clone, Debug)]
enum CachedAnswer {
    Scalar(f64),
    Optimum(NumericOptimum),
    Curve(Arc<Vec<AnalyticSweepPoint>>),
}

/// The entry map: one slot per `(n, δ-bits)` pair.
type EntryMap = HashMap<(usize, u64), Arc<Entry>>;

/// The daemon's shared analytic cache. Cheap to clone the handle
/// (`Arc` inside); safe to query from any number of connection
/// threads.
#[derive(Clone, Debug, Default)]
pub struct AnalyticCache {
    entries: Arc<RwLock<EntryMap>>,
    /// Certified threshold rows already served at least once, keyed
    /// by `n`. Rows are copied verbatim out of the loaded table, so a
    /// hit is bit-identical to the miss that populated it.
    thresholds: Arc<RwLock<HashMap<u32, ThresholdRow>>>,
}

impl AnalyticCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> AnalyticCache {
        AnalyticCache::default()
    }

    /// Number of `(n, δ)` evaluation contexts currently resident.
    #[must_use]
    pub fn contexts(&self) -> usize {
        self.read_entries().len()
    }

    /// The winning probability `P_A(δ)` of a described rule, by the
    /// paper's closed forms (Theorem 4.1 for oblivious rules,
    /// Theorem 5.1 for thresholds).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] for invalid parameters, fewer than two
    /// players, or asymmetric vectors beyond the exact-enumeration
    /// bound.
    pub fn pwin(&self, rule: &RuleSpec, delta: f64) -> Result<(f64, CacheStatus), ModelError> {
        let entry = self.entry(rule.n(), delta);
        let key = ResultKey::PWin {
            family: rule.family,
            param_bits: rule.params.iter().map(|p| p.to_bits()).collect(),
        };
        if let Some(CachedAnswer::Scalar(value)) = entry.lookup(&key) {
            return Ok((value, CacheStatus::Hit));
        }
        // Validate through the exact constructors (range checks with
        // per-index diagnostics), then evaluate the float
        // instantiation on the original bit patterns.
        let value = match rule.family {
            RuleFamily::Threshold => {
                SingleThresholdAlgorithm::from_f64(&rule.params)?;
                entry
                    .ctx
                    .with(|ctx| winning_probability_threshold_in(ctx, &rule.params, &delta))?
            }
            RuleFamily::Oblivious => {
                ObliviousAlgorithm::from_f64(&rule.params)?;
                entry.ctx.with(|ctx| {
                    decision::winning_probability_oblivious_in(ctx, &rule.params, &delta)
                })?
            }
        };
        entry.store(key, CachedAnswer::Scalar(value));
        Ok((value, CacheStatus::Miss))
    }

    /// The optimal parameter vector of a family at `(n, δ)`, by the
    /// derivative-free cube search with default [`SearchOptions`]
    /// (deterministic, so the memoized optimum is the one every cold
    /// search would find).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if `n` is outside the searchable range.
    pub fn optimal(
        &self,
        family: RuleFamily,
        n: usize,
        delta: f64,
    ) -> Result<(NumericOptimum, CacheStatus), ModelError> {
        let entry = self.entry(n, delta);
        let key = ResultKey::Optimal { family };
        if let Some(CachedAnswer::Optimum(opt)) = entry.lookup(&key) {
            return Ok((opt, CacheStatus::Hit));
        }
        let options = SearchOptions::default();
        let opt = match family {
            RuleFamily::Threshold => numeric::maximize_threshold(n, delta, &options)?,
            RuleFamily::Oblivious => numeric::maximize_oblivious(n, delta, &options)?,
        };
        entry.store(key, CachedAnswer::Optimum(opt.clone()));
        Ok((opt, CacheStatus::Miss))
    }

    /// The closed-form symmetric-threshold curve `P(β, δ)` over a
    /// uniform β grid with `grid + 1` points — the same curve as
    /// [`simulator::sweep_threshold_analytic`], evaluated through the
    /// cached context so repeat sweeps (and β-wise overlapping
    /// queries) reuse the Irwin–Hall tables.
    ///
    /// Callers validate `grid >= 2` (the server rejects smaller grids
    /// as query errors before reaching the cache).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::TooFewPlayers`] if `n < 2`.
    pub fn sweep(
        &self,
        n: usize,
        delta: f64,
        grid: usize,
    ) -> Result<(Arc<Vec<AnalyticSweepPoint>>, CacheStatus), ModelError> {
        let entry = self.entry(n, delta);
        let key = ResultKey::Sweep { grid };
        if let Some(CachedAnswer::Curve(points)) = entry.lookup(&key) {
            return Ok((points, CacheStatus::Hit));
        }
        if n < 2 {
            return Err(ModelError::TooFewPlayers { n });
        }
        let points = entry.ctx.with(|ctx| {
            let mut out = Vec::with_capacity(grid + 1);
            for k in 0..=grid {
                let beta = k as f64 / grid as f64;
                let thresholds = vec![beta; n];
                let probability = winning_probability_threshold_in(ctx, &thresholds, &delta)?;
                out.push(AnalyticSweepPoint {
                    x: beta,
                    probability,
                });
            }
            Ok::<_, ModelError>(out)
        })?;
        let points = Arc::new(points);
        entry.store(key, CachedAnswer::Curve(points.clone()));
        Ok((points, CacheStatus::Miss))
    }

    /// The certified optimal-threshold row for `n` at `δ = n/3`,
    /// served from memory through the result memo: the first query
    /// for an `n` copies its row out of the loaded `table` (a miss),
    /// repeats are O(1) hits, and both carry the same `f64` bit
    /// patterns. Returns `None` when the table has no row for `n`.
    #[must_use]
    pub fn threshold(&self, n: u32, table: &ThresholdTable) -> Option<(ThresholdRow, CacheStatus)> {
        if let Some(row) = self
            .thresholds
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&n)
        {
            return Some((row.clone(), CacheStatus::Hit));
        }
        let row = table.rows().iter().find(|row| row.n == n)?.clone();
        self.thresholds
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(n, row.clone());
        Some((row, CacheStatus::Miss))
    }

    fn entry(&self, n: usize, delta: f64) -> Arc<Entry> {
        let key = (n, delta.to_bits());
        if let Some(entry) = self.read_entries().get(&key) {
            return entry.clone();
        }
        let mut entries = self.entries.write().unwrap_or_else(PoisonError::into_inner);
        entries.entry(key).or_default().clone()
    }

    fn read_entries(&self) -> std::sync::RwLockReadGuard<'_, EntryMap> {
        self.entries.read().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Parses a `threshold-table/v1` JSON document (the artifact written
/// by `cargo xtask table`) into the in-memory table the daemon
/// serves; see [`ThresholdTable::from_json`].
///
/// # Errors
///
/// Returns a message on malformed JSON, a wrong schema or capacity
/// rule, or a structurally invalid row.
pub fn load_threshold_table(text: &str) -> Result<ThresholdTable, String> {
    ThresholdTable::from_json(text)
}

impl Entry {
    fn lookup(&self, key: &ResultKey) -> Option<CachedAnswer> {
        self.results
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .cloned()
    }

    fn store(&self, key: ResultKey, answer: CachedAnswer) {
        self.results
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, answer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniform_sums::EvalContext;

    #[test]
    fn pwin_hits_after_miss_and_matches_cold_eval() {
        let cache = AnalyticCache::new();
        let rule = RuleSpec::threshold(vec![0.622, 0.622, 0.622]);
        let (miss, status) = cache.pwin(&rule, 1.0).unwrap();
        assert_eq!(status, CacheStatus::Miss);
        let (hit, status) = cache.pwin(&rule, 1.0).unwrap();
        assert_eq!(status, CacheStatus::Hit);
        assert_eq!(miss.to_bits(), hit.to_bits());

        let mut cold = EvalContext::new();
        let direct =
            winning_probability_threshold_in(&mut cold, &[0.622, 0.622, 0.622], &1.0).unwrap();
        assert_eq!(direct.to_bits(), hit.to_bits());
    }

    #[test]
    fn contexts_are_shared_across_distinct_queries() {
        let cache = AnalyticCache::new();
        cache
            .pwin(&RuleSpec::threshold(vec![0.5, 0.5, 0.5]), 1.0)
            .unwrap();
        cache
            .pwin(&RuleSpec::threshold(vec![0.25, 0.75, 0.5]), 1.0)
            .unwrap();
        cache.sweep(3, 1.0, 8).unwrap();
        // Same (n, δ): one context serves all three query shapes.
        assert_eq!(cache.contexts(), 1);
        cache.sweep(4, 1.0, 8).unwrap();
        assert_eq!(cache.contexts(), 2);
    }

    #[test]
    fn sweep_matches_library_curve_bitwise() {
        let cache = AnalyticCache::new();
        let (points, _) = cache.sweep(3, 1.0, 32).unwrap();
        let library = simulator::sweep_threshold_analytic(3, 1.0, 32).unwrap();
        assert_eq!(points.len(), library.len());
        for (ours, theirs) in points.iter().zip(&library) {
            assert_eq!(ours.x.to_bits(), theirs.x.to_bits());
            assert_eq!(ours.probability.to_bits(), theirs.probability.to_bits());
        }
        let (again, status) = cache.sweep(3, 1.0, 32).unwrap();
        assert_eq!(status, CacheStatus::Hit);
        assert!(Arc::ptr_eq(&points, &again));
    }

    #[test]
    fn optimal_is_memoized_and_deterministic() {
        let cache = AnalyticCache::new();
        let (opt, status) = cache.optimal(RuleFamily::Oblivious, 3, 1.0).unwrap();
        assert_eq!(status, CacheStatus::Miss);
        let (again, status) = cache.optimal(RuleFamily::Oblivious, 3, 1.0).unwrap();
        assert_eq!(status, CacheStatus::Hit);
        assert_eq!(opt, again);
        assert!((opt.value - 0.5).abs() < 1e-6);
    }

    #[test]
    fn threshold_rows_hit_after_miss_bit_identically() {
        let cache = AnalyticCache::new();
        let table = decision::certified::build_table(4).unwrap();
        let (miss, status) = cache.threshold(3, &table).unwrap();
        assert_eq!(status, CacheStatus::Miss);
        let (hit, status) = cache.threshold(3, &table).unwrap();
        assert_eq!(status, CacheStatus::Hit);
        assert_eq!(miss.beta_lo.to_bits(), hit.beta_lo.to_bits());
        assert_eq!(miss.beta_hi.to_bits(), hit.beta_hi.to_bits());
        assert_eq!(miss.p_lo.to_bits(), hit.p_lo.to_bits());
        assert_eq!(miss.p_hi.to_bits(), hit.p_hi.to_bits());
        assert_eq!(miss.method, hit.method);
        // β* = 1 − √(1/7) for n = 3 lies inside the served enclosure.
        let beta_star = 1.0 - (1.0f64 / 7.0).sqrt();
        assert!(miss.beta_lo <= beta_star && beta_star <= miss.beta_hi);
        // Off-table asks are refused, not fabricated.
        assert!(cache.threshold(5, &table).is_none());
        assert!(cache.threshold(0, &table).is_none());
    }

    #[test]
    fn invalid_rules_are_rejected_not_cached() {
        let cache = AnalyticCache::new();
        let bad = RuleSpec::threshold(vec![0.5, 1.5]);
        assert!(cache.pwin(&bad, 1.0).is_err());
        // The failed query must not have poisoned the result memo.
        let good = RuleSpec::threshold(vec![0.5, 0.5]);
        let (_, status) = cache.pwin(&good, 1.0).unwrap();
        assert_eq!(status, CacheStatus::Miss);
    }
}
