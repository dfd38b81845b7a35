//! Parameter sweeps: empirical winning-probability curves.
//!
//! Reproduces the paper's figures *empirically* (frequency estimates
//! over a β grid) so the exact piecewise-polynomial curves can be
//! validated shape-for-shape, not just point-for-point.
//!
//! # Per-point seed derivation
//!
//! Grid point `k` runs the engine with the seed
//! `splitmix64(seed + k · φ64)` — the `k`-th output of a SplitMix64
//! generator seeded with the sweep seed. Earlier revisions used
//! `seed ^ k · 0x9e37`, which reused the base seed verbatim at
//! `k = 0` and only perturbed low bits across points; the regression
//! tests below pin the fixed derivation (distinct per-point seeds,
//! `k = 0` decorrelated from the base seed). The SplitMix64 stream is
//! also structurally distinct from the engine's *batch* seed
//! derivation (xor-then-finalize), so point streams and batch streams
//! never coincide by construction.

use crate::checkpoint::SweepCheckpoint;
use crate::engine::splitmix;
use crate::metrics::keys;
use crate::{Simulation, SimulationReport, SweepError};
use decision::{winning_probability_threshold_in, ModelError, SingleThresholdAlgorithm};
use obs::{MetricsSink, NoopSink, SpanTimer};
use rational::Rational;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use uniform_sums::EvalContext;

/// One grid point of an empirical sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepPoint {
    /// The swept parameter value (e.g. the common threshold β).
    pub x: f64,
    /// The Monte-Carlo estimate at `x`.
    pub report: SimulationReport,
}

/// The engine seed for grid point `k` of a sweep seeded with `seed`:
/// the `k`-th output of a SplitMix64 stream (the generator's state
/// advances by the 64-bit golden ratio per output, then the finalizer
/// decorrelates it).
fn point_seed(seed: u64, k: u64) -> u64 {
    splitmix(seed.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

/// Sweeps the common threshold `β` over a uniform grid, estimating the
/// winning probability at each point with `trials` rounds.
///
/// Uses a fixed seed per grid point derived from `(seed, k)` (the
/// `k`-th output of a SplitMix64 generator seeded with `seed`), so
/// the whole sweep is reproducible. One
/// engine (and hence one worker pool) serves every grid point —
/// thread start-up is paid once for the whole curve, while each point
/// still runs on its own deterministic stream via
/// [`Simulation::reseeded`].
///
/// # Errors
///
/// Returns [`ModelError::TooFewPlayers`] if `n < 2`.
///
/// # Panics
///
/// Panics if `grid < 2` or `trials == 0`.
///
/// # Examples
///
/// ```
/// use simulator::sweep_threshold;
///
/// let points = sweep_threshold(3, 1.0, 10, 20_000, 7).unwrap();
/// assert_eq!(points.len(), 11);
/// // The empirical curve peaks somewhere in the interior.
/// let peak = points.iter().max_by(|a, b| {
///     a.report.estimate.total_cmp(&b.report.estimate)
/// }).unwrap();
/// assert!(peak.x > 0.0 && peak.x < 1.0);
/// ```
pub fn sweep_threshold(
    n: usize,
    delta: f64,
    grid: usize,
    trials: u64,
    seed: u64,
) -> Result<Vec<SweepPoint>, ModelError> {
    sweep_threshold_with_metrics(n, delta, grid, trials, seed, Arc::new(NoopSink))
}

/// [`sweep_threshold`] with a metrics sink attached: the engine's
/// run/RNG/pool counters flow into `sink`, plus one
/// [`keys::SWEEP_POINTS`] count and one [`keys::SWEEP_POINT_SPAN_NS`]
/// wall-clock sample per grid point.
///
/// The instrumentation is observational only — the points returned
/// are bit-identical to [`sweep_threshold`] at the same arguments.
///
/// # Errors
///
/// Returns [`ModelError::TooFewPlayers`] if `n < 2`.
///
/// # Panics
///
/// Panics if `grid < 2` or `trials == 0`.
pub fn sweep_threshold_with_metrics(
    n: usize,
    delta: f64,
    grid: usize,
    trials: u64,
    seed: u64,
    sink: Arc<dyn MetricsSink>,
) -> Result<Vec<SweepPoint>, ModelError> {
    let engine = Simulation::new(trials, seed).with_metrics(sink);
    sweep_threshold_with_engine(&engine, n, delta, grid)
}

/// [`sweep_threshold`] over a caller-configured engine: the sweep
/// inherits the engine's trials, seed, thread count, metrics sink, and
/// any attached [`ChaosPlan`](crate::ChaosPlan) or batch deadline.
/// Grid point `k` still runs on the stream derived from
/// `(engine seed, k)`, so for any engine configuration the points are
/// bit-identical to [`sweep_threshold`] at the same
/// `(n, delta, grid, trials, seed)`.
///
/// # Errors
///
/// Returns [`ModelError::TooFewPlayers`] if `n < 2`.
///
/// # Panics
///
/// Panics if `grid < 2`.
pub fn sweep_threshold_with_engine(
    engine: &Simulation,
    n: usize,
    delta: f64,
    grid: usize,
) -> Result<Vec<SweepPoint>, ModelError> {
    assert!(grid >= 2, "need at least two grid points"); // xtask:allow(no-panic): documented precondition
    if n < 2 {
        return Err(ModelError::TooFewPlayers { n });
    }
    let sink = engine.metrics_sink();
    let seed = engine.seed();
    let mut out = Vec::with_capacity(grid + 1);
    for k in 0..=grid {
        let span = SpanTimer::start(&*sink, keys::SWEEP_POINT_SPAN_NS);
        let beta = Rational::ratio(k as i64, grid as i64);
        let rule = SingleThresholdAlgorithm::symmetric(n, beta.clone())?;
        let report = engine
            .reseeded(point_seed(seed, k as u64))
            .run(&rule, delta);
        drop(span);
        sink.add(keys::SWEEP_POINTS, 1);
        out.push(SweepPoint {
            x: beta.to_f64(),
            report,
        });
    }
    Ok(out)
}

/// [`sweep_threshold`] with `sweep-checkpoint/v1` durability: after
/// every completed grid point the sweep state is atomically persisted
/// to `path` (write to a sibling temp file, then rename), so a process
/// killed mid-sweep can restart where it left off.
///
/// If `path` already holds a checkpoint for the **same** sweep
/// parameters, its completed prefix is reused instead of recomputed —
/// calling this again after a crash (or passing the file to
/// [`resume_sweep`]) finishes the sweep and returns the same
/// `Vec<SweepPoint>` an uninterrupted run produces, point for point.
/// A checkpoint for *different* parameters is rejected with
/// [`SweepError::Mismatch`] rather than silently overwritten.
///
/// # Errors
///
/// Returns [`SweepError::Model`] for invalid sweep parameters,
/// [`SweepError::Io`] if the checkpoint cannot be read or written, and
/// [`SweepError::Corrupt`] / [`SweepError::Mismatch`] if an existing
/// file is damaged or describes a different sweep.
///
/// # Panics
///
/// Panics if `grid < 2` or `trials == 0`.
///
/// # Examples
///
/// ```
/// use simulator::{resume_sweep, sweep_threshold, sweep_threshold_checkpointed};
///
/// let path = std::env::temp_dir().join("doc-sweep-ckpt.json");
/// let swept = sweep_threshold_checkpointed(3, 1.0, 4, 5_000, 7, &path).unwrap();
/// // Resuming a finished sweep replays the checkpoint without
/// // touching the engine, and matches the plain sweep bit-for-bit.
/// assert_eq!(resume_sweep(&path).unwrap(), swept);
/// assert_eq!(sweep_threshold(3, 1.0, 4, 5_000, 7).unwrap(), swept);
/// std::fs::remove_file(&path).unwrap();
/// ```
pub fn sweep_threshold_checkpointed(
    n: usize,
    delta: f64,
    grid: usize,
    trials: u64,
    seed: u64,
    path: &Path,
) -> Result<Vec<SweepPoint>, SweepError> {
    sweep_threshold_checkpointed_with_metrics(
        n,
        delta,
        grid,
        trials,
        seed,
        path,
        Arc::new(NoopSink),
    )
}

/// [`sweep_threshold_checkpointed`] with a metrics sink attached: the
/// engine counters flow into `sink` as usual, plus one
/// [`keys::SWEEP_CHECKPOINT_WRITES`] count per persisted point and a
/// [`keys::SWEEP_RESUMED_POINTS`] count for grid points replayed from
/// the checkpoint instead of recomputed.
///
/// # Errors
///
/// As [`sweep_threshold_checkpointed`].
///
/// # Panics
///
/// Panics if `grid < 2` or `trials == 0`.
pub fn sweep_threshold_checkpointed_with_metrics(
    n: usize,
    delta: f64,
    grid: usize,
    trials: u64,
    seed: u64,
    path: &Path,
    sink: Arc<dyn MetricsSink>,
) -> Result<Vec<SweepPoint>, SweepError> {
    assert!(grid >= 2, "need at least two grid points"); // xtask:allow(no-panic): documented precondition
    let requested = SweepCheckpoint::new(n, delta, grid, trials, seed);
    ShardSweep::open_with_metrics(requested, path, sink)?.run_to_completion()
}

/// Resumes (or replays) the sweep checkpointed at `path`: the sweep
/// parameters are read back from the file, completed points are
/// reused, and the remaining grid points are computed and checkpointed
/// exactly as [`sweep_threshold_checkpointed`] would have. The result
/// is bit-identical to the uninterrupted sweep.
///
/// # Errors
///
/// Returns [`SweepError::Io`] if the checkpoint cannot be read,
/// [`SweepError::Corrupt`] if it is damaged, and
/// [`SweepError::Mismatch`] if it was produced under a different RNG
/// stream version (its counts could not be reproduced for the
/// remaining points).
pub fn resume_sweep(path: &Path) -> Result<Vec<SweepPoint>, SweepError> {
    resume_sweep_with_metrics(path, Arc::new(NoopSink))
}

/// [`resume_sweep`] with a metrics sink attached; instruments exactly
/// as [`sweep_threshold_checkpointed_with_metrics`].
///
/// # Errors
///
/// As [`resume_sweep`].
pub fn resume_sweep_with_metrics(
    path: &Path,
    sink: Arc<dyn MetricsSink>,
) -> Result<Vec<SweepPoint>, SweepError> {
    let ckpt = SweepCheckpoint::load(path)?;
    if ckpt.rng_stream_version != crate::RNG_STREAM_VERSION {
        return Err(SweepError::Mismatch {
            field: "rng_stream_version",
            expected: crate::RNG_STREAM_VERSION.to_string(),
            found: ckpt.rng_stream_version.to_string(),
        });
    }
    ShardSweep::from_checkpoint(ckpt, path.to_path_buf(), sink).run_to_completion()
}

/// Runs the shard sweep `requested` describes (a whole grid or one
/// slice of it, see [`SweepCheckpoint::shard`]) to completion,
/// checkpointing to `path` after every point. A convenience wrapper
/// over [`ShardSweep::open`].
///
/// # Errors
///
/// As [`ShardSweep::open`].
pub fn sweep_threshold_shard(
    requested: SweepCheckpoint,
    path: &Path,
) -> Result<Vec<SweepPoint>, SweepError> {
    ShardSweep::open(requested, path)?.run_to_completion()
}

/// [`sweep_threshold_shard`] with a metrics sink attached.
///
/// # Errors
///
/// As [`ShardSweep::open`].
pub fn sweep_threshold_shard_with_metrics(
    requested: SweepCheckpoint,
    path: &Path,
    sink: Arc<dyn MetricsSink>,
) -> Result<Vec<SweepPoint>, SweepError> {
    ShardSweep::open_with_metrics(requested, path, sink)?.run_to_completion()
}

/// An in-progress checkpointed sweep over one shard of the grid (or
/// the whole grid), advanced one point at a time.
///
/// This is the unit of progress the orchestration layer supervises: a
/// worker process opens its shard, calls [`ShardSweep::step`] in a
/// loop, and the atomic checkpoint write after every point doubles as
/// its heartbeat — a coordinator watching the file sees monotone
/// growth, and whatever survives a `SIGKILL` is a well-formed prefix
/// another worker can resume. Fault injection, pacing, and progress
/// reporting all happen *between* points, so they cannot perturb the
/// per-point RNG streams.
pub struct ShardSweep {
    engine: Simulation,
    ckpt: SweepCheckpoint,
    path: PathBuf,
    sink: Arc<dyn MetricsSink>,
}

impl std::fmt::Debug for ShardSweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardSweep")
            .field("checkpoint", &self.ckpt)
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

impl ShardSweep {
    /// Opens (or resumes) the shard sweep `requested` describes,
    /// checkpointing to `path`. An existing checkpoint for the same
    /// shard is picked up where it left off; one for a *different*
    /// shard or sweep is rejected rather than overwritten.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Mismatch`] if `requested` carries a
    /// foreign RNG stream version or an existing checkpoint disagrees
    /// with it, [`SweepError::Corrupt`] if `requested` is structurally
    /// invalid or the existing file is damaged, and [`SweepError::Io`]
    /// if the file cannot be read.
    pub fn open(requested: SweepCheckpoint, path: &Path) -> Result<ShardSweep, SweepError> {
        ShardSweep::open_with_metrics(requested, path, Arc::new(NoopSink))
    }

    /// [`ShardSweep::open`] with a metrics sink attached; instruments
    /// exactly as [`sweep_threshold_checkpointed_with_metrics`].
    ///
    /// # Errors
    ///
    /// As [`ShardSweep::open`].
    pub fn open_with_metrics(
        requested: SweepCheckpoint,
        path: &Path,
        sink: Arc<dyn MetricsSink>,
    ) -> Result<ShardSweep, SweepError> {
        if requested.rng_stream_version != crate::RNG_STREAM_VERSION {
            return Err(SweepError::Mismatch {
                field: "rng_stream_version",
                expected: crate::RNG_STREAM_VERSION.to_string(),
                found: requested.rng_stream_version.to_string(),
            });
        }
        requested.validate_structure()?;
        let ckpt = if path.exists() {
            let found = SweepCheckpoint::load(path)?;
            found.validate_matches(&requested)?;
            found
        } else {
            requested
        };
        Ok(ShardSweep::from_checkpoint(ckpt, path.to_path_buf(), sink))
    }

    /// Wraps an already-validated checkpoint, counting its completed
    /// points as resumed.
    fn from_checkpoint(
        ckpt: SweepCheckpoint,
        path: PathBuf,
        sink: Arc<dyn MetricsSink>,
    ) -> ShardSweep {
        if !ckpt.wins.is_empty() {
            sink.add(keys::SWEEP_RESUMED_POINTS, ckpt.wins.len() as u64);
        }
        let engine = Simulation::new(ckpt.trials, ckpt.seed).with_metrics(Arc::clone(&sink));
        ShardSweep {
            engine,
            ckpt,
            path,
            sink,
        }
    }

    /// Grid points completed so far (including resumed ones).
    #[must_use]
    pub fn completed(&self) -> usize {
        self.ckpt.wins.len()
    }

    /// Whether every covered point has completed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.ckpt.is_complete()
    }

    /// The checkpoint as it stands (what the last atomic write
    /// persisted, plus the initial state before any write).
    #[must_use]
    pub fn checkpoint(&self) -> &SweepCheckpoint {
        &self.ckpt
    }

    /// Runs the next grid point and atomically persists the grown
    /// checkpoint. Returns `false` when the shard was already
    /// complete (and runs nothing).
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Model`] for invalid sweep parameters and
    /// [`SweepError::Io`] if the checkpoint cannot be written.
    pub fn step(&mut self) -> Result<bool, SweepError> {
        let offset = self.ckpt.wins.len();
        if offset >= self.ckpt.shard_points {
            return Ok(false);
        }
        let k = self.ckpt.shard_start + offset;
        let span = SpanTimer::start(&*self.sink, keys::SWEEP_POINT_SPAN_NS);
        let beta = Rational::ratio(k as i64, self.ckpt.grid as i64);
        let rule = SingleThresholdAlgorithm::symmetric(self.ckpt.n, beta)?;
        let report = self
            .engine
            .reseeded(point_seed(self.ckpt.seed, k as u64))
            .run(&rule, self.ckpt.delta);
        drop(span);
        self.sink.add(keys::SWEEP_POINTS, 1);
        self.ckpt.wins.push(report.wins);
        self.ckpt.write_atomic(&self.path)?;
        self.sink.add(keys::SWEEP_CHECKPOINT_WRITES, 1);
        Ok(true)
    }

    /// Runs every remaining point and materializes the shard's
    /// [`SweepPoint`]s from the (now complete) checkpoint.
    ///
    /// # Errors
    ///
    /// As [`ShardSweep::step`].
    pub fn run_to_completion(mut self) -> Result<Vec<SweepPoint>, SweepError> {
        while self.step()? {}
        Ok(self.ckpt.points())
    }
}

/// One grid point of an analytic (closed-form) sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AnalyticSweepPoint {
    /// The swept threshold value β.
    pub x: f64,
    /// The closed-form winning probability `P(β, δ)`.
    pub probability: f64,
}

/// Sweeps the common threshold `β` over a uniform grid, evaluating
/// the *closed-form* winning probability (Theorem 5.1) at each point
/// through the float instantiation of the generic core.
///
/// All grid points share one memoized [`EvalContext`], so the
/// inclusion–exclusion tables behind the Irwin–Hall CDF are built
/// once per `(n, δ)` and reused across the whole curve.
///
/// # Errors
///
/// Returns [`ModelError::TooFewPlayers`] if `n < 2`.
///
/// # Panics
///
/// Panics if `grid < 2`.
///
/// # Examples
///
/// ```
/// use simulator::sweep_threshold_analytic;
///
/// let curve = sweep_threshold_analytic(3, 1.0, 100).unwrap();
/// assert_eq!(curve.len(), 101);
/// // β* = 1 - sqrt(1/7) for n = 3, δ = 1 (Theorem 6.2).
/// let peak = curve.iter().max_by(|a, b| {
///     a.probability.total_cmp(&b.probability)
/// }).unwrap();
/// assert!((peak.x - (1.0 - (1.0f64 / 7.0).sqrt())).abs() < 0.02);
/// ```
pub fn sweep_threshold_analytic(
    n: usize,
    delta: f64,
    grid: usize,
) -> Result<Vec<AnalyticSweepPoint>, ModelError> {
    sweep_threshold_analytic_with_metrics(n, delta, grid, &NoopSink)
}

/// [`sweep_threshold_analytic`] with a metrics sink attached: one
/// [`keys::SWEEP_POINTS`] count and one [`keys::SWEEP_POINT_SPAN_NS`]
/// sample per grid point, plus the shared [`EvalContext`]'s final
/// memo-cache totals as [`keys::MEMO_HITS`] / [`keys::MEMO_MISSES`].
///
/// The instrumentation is observational only — the curve returned is
/// identical to [`sweep_threshold_analytic`] at the same arguments.
///
/// # Errors
///
/// Returns [`ModelError::TooFewPlayers`] if `n < 2`.
///
/// # Panics
///
/// Panics if `grid < 2`.
pub fn sweep_threshold_analytic_with_metrics(
    n: usize,
    delta: f64,
    grid: usize,
    sink: &dyn MetricsSink,
) -> Result<Vec<AnalyticSweepPoint>, ModelError> {
    assert!(grid >= 2, "need at least two grid points"); // xtask:allow(no-panic): documented precondition
    if n < 2 {
        return Err(ModelError::TooFewPlayers { n });
    }
    let mut ctx = EvalContext::new();
    let mut out = Vec::with_capacity(grid + 1);
    for k in 0..=grid {
        let span = SpanTimer::start(sink, keys::SWEEP_POINT_SPAN_NS);
        let beta = k as f64 / grid as f64;
        let thresholds = vec![beta; n];
        let probability = winning_probability_threshold_in(&mut ctx, &thresholds, &delta)?;
        drop(span);
        sink.add(keys::SWEEP_POINTS, 1);
        out.push(AnalyticSweepPoint {
            x: beta,
            probability,
        });
    }
    sink.add(keys::MEMO_HITS, ctx.hits());
    sink.add(keys::MEMO_MISSES, ctx.misses());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decision::{symmetric, Capacity};

    #[test]
    fn sweep_tracks_exact_curve() {
        let n = 3;
        let curve = symmetric::analyze(n, &Capacity::unit()).unwrap();
        let points = sweep_threshold(n, 1.0, 8, 60_000, 11).unwrap();
        for p in &points {
            let exact = curve.eval_f64(p.x).unwrap();
            assert!(
                p.report.agrees_with(exact, 4.5),
                "β = {}: exact {exact}, {}",
                p.x,
                p.report
            );
        }
    }

    #[test]
    fn sweep_is_reproducible() {
        let a = sweep_threshold(2, 1.0, 4, 5_000, 3).unwrap();
        let b = sweep_threshold(2, 1.0, 4, 5_000, 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn endpoints_cover_unit_interval() {
        let pts = sweep_threshold(2, 1.0, 5, 1_000, 1).unwrap();
        assert_eq!(pts.first().unwrap().x, 0.0);
        assert_eq!(pts.last().unwrap().x, 1.0);
    }

    #[test]
    fn point_seeds_are_distinct_and_decorrelated() {
        // Regression for the pre-fix derivation `seed ^ k · 0x9e37`,
        // which (a) reused the base seed verbatim at k = 0 and
        // (b) only perturbed low bits, inviting collisions across
        // nearby sweeps. The SplitMix64 stream must give every point
        // of every realistic grid its own seed, distinct from the
        // base seed.
        for seed in [0u64, 1, 7, 0x9e37, u64::MAX] {
            let mut seen = std::collections::BTreeSet::new();
            for k in 0..=512u64 {
                let s = point_seed(seed, k);
                assert_ne!(s, seed, "seed {seed}: point {k} reused the base seed");
                assert!(
                    seen.insert(s),
                    "seed {seed}: duplicate point seed at k = {k}"
                );
            }
        }
        // The old derivation's k = 0 failure mode, pinned explicitly.
        assert_ne!(point_seed(42, 0), 42);
    }

    #[test]
    fn metered_sweep_matches_plain_sweep_and_counts_points() {
        let metrics = Arc::new(crate::EngineMetrics::new());
        let plain = sweep_threshold(2, 1.0, 4, 5_000, 3).unwrap();
        let metered = sweep_threshold_with_metrics(2, 1.0, 4, 5_000, 3, metrics.clone()).unwrap();
        assert_eq!(plain, metered);
        let snap = metrics.snapshot();
        assert_eq!(snap.sweep_points, 5);
        assert_eq!(snap.sweep_point_ns.count, 5);
        assert_eq!(snap.runs, 5);
        assert_eq!(snap.trials, 5 * 5_000);
    }

    #[test]
    fn metered_analytic_sweep_counts_points_and_flushes_memo_totals() {
        let metrics = crate::EngineMetrics::new();
        let plain = sweep_threshold_analytic(3, 1.0, 16).unwrap();
        let metered = sweep_threshold_analytic_with_metrics(3, 1.0, 16, &metrics).unwrap();
        assert_eq!(plain, metered);
        let snap = metrics.snapshot();
        assert_eq!(snap.sweep_points, 17);
        assert_eq!(snap.sweep_point_ns.count, 17);
        // Theorem 5.1's threshold evaluation runs on the context's
        // binomial cache alone — the Irwin–Hall table memo stays
        // untouched, and the flushed totals must say so rather than
        // invent traffic.
        assert_eq!(snap.memo_hits, 0);
        assert_eq!(snap.memo_misses, 0);
    }

    #[test]
    fn memo_counters_flow_through_a_sink() {
        // The memo traffic itself, observed through EngineMetrics: an
        // oblivious-rule evaluation hits the Irwin–Hall table cache.
        let metrics = crate::EngineMetrics::new();
        let mut ctx = EvalContext::<f64>::new();
        for _ in 0..3 {
            let _ = decision::winning_probability_oblivious_in(&mut ctx, &[0.5, 0.5, 0.5], &1.0)
                .unwrap();
        }
        metrics.add(keys::MEMO_HITS, ctx.hits());
        metrics.add(keys::MEMO_MISSES, ctx.misses());
        let snap = metrics.snapshot();
        assert_eq!(snap.memo_misses, 1);
        assert_eq!(snap.memo_hits, 2);
    }

    #[test]
    fn tiny_systems_rejected() {
        assert!(sweep_threshold(1, 1.0, 4, 100, 0).is_err());
        assert!(sweep_threshold_analytic(1, 1.0, 4).is_err());
    }

    #[test]
    fn analytic_sweep_matches_symbolic_curve() {
        let n = 4;
        let curve = symmetric::analyze(n, &Capacity::unit()).unwrap();
        for p in sweep_threshold_analytic(n, 1.0, 16).unwrap() {
            let exact = curve.eval_f64(p.x).unwrap();
            assert!(
                (p.probability - exact).abs() < 1e-9,
                "β = {}: analytic {}, symbolic {exact}",
                p.x,
                p.probability
            );
        }
    }

    /// A per-test scratch path that cleans up after itself.
    struct ScratchFile(std::path::PathBuf);

    impl ScratchFile {
        fn new(name: &str) -> ScratchFile {
            let dir = std::env::temp_dir().join("nocomm-sweep-resume-tests");
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join(name);
            std::fs::remove_file(&path).ok();
            ScratchFile(path)
        }
    }

    impl Drop for ScratchFile {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    #[test]
    fn engine_driven_sweep_matches_plain_sweep() {
        let plain = sweep_threshold(3, 1.0, 4, 5_000, 3).unwrap();
        let engine = Simulation::new(5_000, 3);
        let driven = sweep_threshold_with_engine(&engine, 3, 1.0, 4).unwrap();
        assert_eq!(plain, driven);
    }

    #[test]
    fn checkpointed_sweep_matches_plain_sweep() {
        let scratch = ScratchFile::new("fresh.json");
        let plain = sweep_threshold(2, 1.0, 4, 5_000, 3).unwrap();
        let ckpt = sweep_threshold_checkpointed(2, 1.0, 4, 5_000, 3, &scratch.0).unwrap();
        assert_eq!(plain, ckpt);
        // The file is left complete and loadable.
        let stored = SweepCheckpoint::load(&scratch.0).unwrap();
        assert!(stored.is_complete());
        assert_eq!(stored.points(), plain);
    }

    #[test]
    fn killed_sweep_resumes_to_the_identical_vector() {
        // The atomic write-rename after every point guarantees a killed
        // process leaves a well-formed checkpoint holding an exact
        // prefix of the sweep. Simulate every possible kill site by
        // truncating a complete checkpoint to each prefix length and
        // resuming from it.
        let scratch = ScratchFile::new("killed.json");
        let full = sweep_threshold_checkpointed(3, 1.0, 4, 5_000, 11, &scratch.0).unwrap();
        let complete = SweepCheckpoint::load(&scratch.0).unwrap();
        for survived in 0..complete.wins.len() {
            let mut prefix = complete.clone();
            prefix.wins.truncate(survived);
            prefix.write_atomic(&scratch.0).unwrap();
            let resumed = resume_sweep(&scratch.0).unwrap();
            assert_eq!(resumed, full, "kill after {survived} points");
        }
    }

    #[test]
    fn resuming_a_complete_checkpoint_replays_without_running() {
        let scratch = ScratchFile::new("complete.json");
        let full = sweep_threshold_checkpointed(2, 1.0, 4, 5_000, 7, &scratch.0).unwrap();
        let metrics = Arc::new(crate::EngineMetrics::new());
        let replayed = resume_sweep_with_metrics(&scratch.0, metrics.clone()).unwrap();
        assert_eq!(replayed, full);
        let snap = metrics.snapshot();
        assert_eq!(snap.sweep_resumed_points, 5, "all points replayed");
        assert_eq!(snap.runs, 0, "no engine work on a complete file");
        assert_eq!(snap.sweep_checkpoint_writes, 0);
        // Re-requesting the same sweep reuses the file the same way.
        let again = sweep_threshold_checkpointed(2, 1.0, 4, 5_000, 7, &scratch.0).unwrap();
        assert_eq!(again, full);
    }

    #[test]
    fn checkpoint_writes_and_resumed_points_are_counted() {
        let scratch = ScratchFile::new("counted.json");
        let metrics = Arc::new(crate::EngineMetrics::new());
        let full = sweep_threshold_checkpointed_with_metrics(
            2,
            1.0,
            4,
            5_000,
            3,
            &scratch.0,
            metrics.clone(),
        )
        .unwrap();
        let snap = metrics.snapshot();
        assert_eq!(
            snap.sweep_checkpoint_writes, 5,
            "one atomic write per point"
        );
        assert_eq!(snap.sweep_resumed_points, 0, "fresh sweep resumes nothing");
        assert_eq!(snap.sweep_points, 5);

        // Kill after two points; the resumed run computes exactly the
        // remaining three.
        let mut prefix = SweepCheckpoint::load(&scratch.0).unwrap();
        prefix.wins.truncate(2);
        prefix.write_atomic(&scratch.0).unwrap();
        let metrics = Arc::new(crate::EngineMetrics::new());
        let resumed = resume_sweep_with_metrics(&scratch.0, metrics.clone()).unwrap();
        assert_eq!(resumed, full);
        let snap = metrics.snapshot();
        assert_eq!(snap.sweep_resumed_points, 2);
        assert_eq!(snap.sweep_points, 3);
        assert_eq!(snap.sweep_checkpoint_writes, 3);
        assert_eq!(snap.runs, 3);
    }

    #[test]
    fn mismatched_checkpoint_is_rejected_not_overwritten() {
        let scratch = ScratchFile::new("mismatch.json");
        sweep_threshold_checkpointed(2, 1.0, 4, 5_000, 3, &scratch.0).unwrap();
        let before = std::fs::read_to_string(&scratch.0).unwrap();
        let err = sweep_threshold_checkpointed(2, 1.0, 4, 5_000, 4, &scratch.0).unwrap_err();
        assert!(matches!(err, SweepError::Mismatch { field: "seed", .. }));
        let err = sweep_threshold_checkpointed(3, 1.0, 4, 5_000, 3, &scratch.0).unwrap_err();
        assert!(matches!(err, SweepError::Mismatch { field: "n", .. }));
        assert_eq!(
            std::fs::read_to_string(&scratch.0).unwrap(),
            before,
            "a rejected request must not touch the file"
        );
    }

    #[test]
    fn stale_stream_version_is_rejected_on_resume() {
        let scratch = ScratchFile::new("stale.json");
        sweep_threshold_checkpointed(2, 1.0, 4, 5_000, 3, &scratch.0).unwrap();
        let mut ckpt = SweepCheckpoint::load(&scratch.0).unwrap();
        ckpt.rng_stream_version = crate::RNG_STREAM_VERSION - 1;
        ckpt.write_atomic(&scratch.0).unwrap();
        let err = resume_sweep(&scratch.0).unwrap_err();
        assert!(matches!(
            err,
            SweepError::Mismatch {
                field: "rng_stream_version",
                ..
            }
        ));
    }

    #[test]
    fn shard_sweeps_merge_bit_identically_to_the_whole_sweep() {
        let (n, delta, grid, trials, seed) = (3, 1.0, 6, 5_000, 11);
        let whole_file = ScratchFile::new("shard-whole.json");
        let whole =
            sweep_threshold_checkpointed(n, delta, grid, trials, seed, &whole_file.0).unwrap();
        let mut shards = Vec::new();
        let mut points = Vec::new();
        for (start, count) in [(0usize, 3usize), (3, 2), (5, 2)] {
            let file = ScratchFile::new(&format!("shard-{start}.json"));
            let requested = SweepCheckpoint::shard(n, delta, grid, trials, seed, start, count);
            points.extend(sweep_threshold_shard(requested, &file.0).unwrap());
            shards.push(SweepCheckpoint::load(&file.0).unwrap());
        }
        // The concatenated shard points equal the whole sweep…
        assert_eq!(points, whole);
        // …and the merged checkpoint is byte-identical to the file a
        // single process wrote.
        let requested = SweepCheckpoint::new(n, delta, grid, trials, seed);
        let merged = SweepCheckpoint::merge_shards(&requested, &shards).unwrap();
        assert_eq!(
            merged.to_json(),
            std::fs::read_to_string(&whole_file.0).unwrap()
        );
        assert_eq!(merged.points(), whole);
    }

    #[test]
    fn killed_shard_resumes_to_the_identical_slice() {
        let scratch = ScratchFile::new("shard-killed.json");
        let requested = SweepCheckpoint::shard(3, 1.0, 6, 5_000, 11, 2, 3);
        let full = sweep_threshold_shard(requested.clone(), &scratch.0).unwrap();
        let complete = SweepCheckpoint::load(&scratch.0).unwrap();
        for survived in 0..complete.wins.len() {
            let mut prefix = complete.clone();
            prefix.wins.truncate(survived);
            prefix.write_atomic(&scratch.0).unwrap();
            let resumed = sweep_threshold_shard(requested.clone(), &scratch.0).unwrap();
            assert_eq!(resumed, full, "kill after {survived} points");
        }
    }

    #[test]
    fn shard_sweep_steps_and_reports_progress() {
        let scratch = ScratchFile::new("shard-steps.json");
        let requested = SweepCheckpoint::shard(2, 1.0, 4, 2_000, 5, 1, 2);
        let mut sweep = ShardSweep::open(requested, &scratch.0).unwrap();
        assert_eq!(sweep.completed(), 0);
        assert!(!sweep.is_complete());
        assert!(sweep.step().unwrap());
        assert_eq!(sweep.completed(), 1);
        // Every step leaves a loadable checkpoint behind.
        let on_disk = SweepCheckpoint::load(&scratch.0).unwrap();
        assert_eq!(on_disk, *sweep.checkpoint());
        assert!(sweep.step().unwrap());
        assert!(sweep.is_complete());
        assert!(!sweep.step().unwrap(), "a complete shard steps no more");
    }

    #[test]
    fn foreign_stream_version_is_rejected_on_shard_open() {
        let scratch = ScratchFile::new("shard-version.json");
        // A requested shard stamped with a foreign stream version…
        let mut requested = SweepCheckpoint::shard(2, 1.0, 4, 2_000, 5, 0, 2);
        requested.rng_stream_version = crate::RNG_STREAM_VERSION + 1;
        let err = ShardSweep::open(requested, &scratch.0).unwrap_err();
        assert!(matches!(
            err,
            SweepError::Mismatch {
                field: "rng_stream_version",
                ..
            }
        ));
        // …and an on-disk shard from a foreign stream, against a
        // current-version request.
        let requested = SweepCheckpoint::shard(2, 1.0, 4, 2_000, 5, 0, 2);
        sweep_threshold_shard(requested.clone(), &scratch.0).unwrap();
        let mut stale = SweepCheckpoint::load(&scratch.0).unwrap();
        stale.rng_stream_version = crate::RNG_STREAM_VERSION - 1;
        stale.write_atomic(&scratch.0).unwrap();
        let err = ShardSweep::open(requested, &scratch.0).unwrap_err();
        assert!(matches!(
            err,
            SweepError::Mismatch {
                field: "rng_stream_version",
                ..
            }
        ));
    }

    #[test]
    fn structurally_invalid_shard_requests_are_rejected() {
        let scratch = ScratchFile::new("shard-invalid.json");
        let requested = SweepCheckpoint::shard(3, 1.0, 6, 5_000, 11, 5, 4);
        let err = ShardSweep::open(requested, &scratch.0).unwrap_err();
        assert!(matches!(err, SweepError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn missing_checkpoint_file_surfaces_as_io_error() {
        let path = std::env::temp_dir().join("nocomm-no-such-checkpoint.json");
        assert!(matches!(
            resume_sweep(&path).unwrap_err(),
            SweepError::Io(_)
        ));
    }

    #[test]
    fn empirical_sweep_tracks_analytic_curve() {
        let analytic = sweep_threshold_analytic(3, 1.0, 6).unwrap();
        let empirical = sweep_threshold(3, 1.0, 6, 60_000, 19).unwrap();
        for (a, e) in analytic.iter().zip(&empirical) {
            assert_eq!(a.x, e.x);
            assert!(
                e.report.agrees_with(a.probability, 4.5),
                "β = {}: analytic {}, {}",
                a.x,
                a.probability,
                e.report
            );
        }
    }
}
