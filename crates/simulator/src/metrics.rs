//! Engine observability: the typed metrics sink and its JSON export.
//!
//! The engine's hot layers report through an [`obs::MetricsSink`]
//! held by [`Simulation`](crate::Simulation) — a no-op by default.
//! [`EngineMetrics`] is the concrete sink for engine workloads: it
//! routes the engine's fixed key set (see [`keys`]) onto typed atomic
//! counters and histograms, and [`EngineMetrics::snapshot`] freezes
//! them into a [`MetricsSnapshot`] that serializes to the same
//! hand-rolled JSON style as the `results/BENCH_*.json` documents
//! (validated by `cargo xtask metrics-check`).
//!
//! Instrumentation never touches the RNG stream and flushes at batch
//! granularity, so estimates are bit-identical with any sink attached
//! and the throughput cost stays within noise (both properties are
//! tested; see `tests/metrics_conservation.rs` and the
//! `simulator_throughput` bench).
//!
//! # Examples
//!
//! ```
//! use decision::ObliviousAlgorithm;
//! use simulator::{EngineMetrics, Simulation};
//! use std::sync::Arc;
//!
//! let metrics = Arc::new(EngineMetrics::new());
//! let sim = Simulation::new(50_000, 7).with_metrics(metrics.clone());
//! let report = sim.run(&ObliviousAlgorithm::fair(3), 1.0);
//!
//! let snap = metrics.snapshot();
//! assert_eq!(snap.trials, 50_000);
//! assert_eq!(snap.wins, report.wins);
//! assert_eq!(snap.dispatch_oblivious, 1);
//! // Crash-free stream: two logical uniforms (input and coin) per
//! // player per trial.
//! assert_eq!(snap.rng_draws, 50_000 * 3 * 2);
//! ```

use obs::{Counter, Histogram, HistogramSnapshot, MetricsSink};
use std::io::{self, Write};
use std::path::Path;

/// The engine's metric keys, grouped by layer.
///
/// Counters unless noted; histogram keys say so. Third-party
/// [`MetricsSink`] implementations can route any subset of these.
pub mod keys {
    /// Completed `run*` calls (counter).
    pub const RUNS: &str = "engine.runs";
    /// Trials simulated across all runs (counter).
    pub const TRIALS: &str = "engine.trials";
    /// Winning trials across all runs (counter).
    pub const WINS: &str = "engine.wins";
    /// Batches executed across all runs, every path (counter).
    pub const BATCHES: &str = "engine.batches";
    /// Batch re-executions performed by the fault-recovery layer —
    /// in-place retries after an injected panic or poisoned draws,
    /// plus coordinator reclaims of batches a lost worker never
    /// reported (counter; zero on a fault-free run).
    pub const RECOVERED_BATCHES: &str = "engine.recovered_batches";
    /// Chaos faults armed by a `ChaosPlan` — each planned fault fires
    /// at most once (counter).
    pub const CHAOS_FAULTS: &str = "chaos.faults";
    /// Runs dispatched onto the monomorphized threshold kernel
    /// (counter).
    pub const DISPATCH_THRESHOLD: &str = "engine.dispatch.threshold";
    /// Runs dispatched onto the monomorphized oblivious kernel
    /// (counter).
    pub const DISPATCH_OBLIVIOUS: &str = "engine.dispatch.oblivious";
    /// Runs dispatched onto the generic per-decision fallback
    /// (counter).
    pub const DISPATCH_OPAQUE: &str = "engine.dispatch.opaque";
    /// Uniform samples handed to trial loops (counter; logical draws,
    /// `trials × n × per_player`, whichever planes the kernel
    /// actually generates).
    pub const RNG_DRAWS: &str = "rng.draws";
    /// Lane blocks evaluated by the lane kernel (counter). One count
    /// is one `L`-wide lane block — a single `threefry4x64_lanes::<L>`
    /// call, i.e. `L` scalar Threefry-4×64 blocks, one per trial of
    /// the lane group — yielding eight uniforms per lane (two per
    /// 64-bit word, stream v6). A run evaluates
    /// `⌈trials_per_batch / L⌉ × ⌈n / 8⌉ × planes` of them per batch.
    /// Multiply by the lane width for scalar-block work.
    pub const RNG_LANE_BLOCKS: &str = "rng.lane_blocks";
    /// Jobs executed by pool workers (counter).
    pub const POOL_JOBS: &str = "pool.jobs";
    /// Batches completed by pooled runs — first completions only,
    /// whoever executed them (workers, the submitting thread, or its
    /// recovery path); late duplicates are not counted (counter).
    pub const POOL_BATCHES: &str = "pool.batches";
    /// Job panics recovered by pool workers (counter).
    pub const POOL_PANICS: &str = "pool.panics";
    /// Dead worker threads replaced by the pool supervisor (counter).
    pub const POOL_RESPAWNS: &str = "pool.respawns";
    /// Jobs discarded because their deadline passed before a worker
    /// picked them up (counter).
    pub const POOL_EXPIRED_JOBS: &str = "pool.expired_jobs";
    /// Total wall-clock nanoseconds pool workers spent running jobs
    /// (counter).
    pub const POOL_BUSY_NS: &str = "pool.busy_ns";
    /// Total wall-clock nanoseconds pool workers spent parked on the
    /// job queue (counter).
    pub const POOL_IDLE_NS: &str = "pool.idle_ns";
    /// Per-job busy time in nanoseconds (histogram).
    pub const POOL_JOB_SPAN_NS: &str = "pool.job_ns";
    /// Grid points evaluated by Monte-Carlo sweeps (counter).
    pub const SWEEP_POINTS: &str = "sweep.points";
    /// Checkpoint files written (atomic write-rename per completed
    /// grid point) by checkpointed sweeps (counter).
    pub const SWEEP_CHECKPOINT_WRITES: &str = "sweep.checkpoint_writes";
    /// Grid points skipped on resume because a checkpoint already
    /// held their results (counter).
    pub const SWEEP_RESUMED_POINTS: &str = "sweep.resumed_points";
    /// Per-grid-point wall-clock nanoseconds (histogram).
    pub const SWEEP_POINT_SPAN_NS: &str = "sweep.point_ns";
    /// Shards handed to worker processes by the sweep orchestrator,
    /// counting every issue including re-issues (counter).
    pub const SHARD_ISSUED: &str = "shard.issued";
    /// Shards whose checkpoint a worker completed and the
    /// orchestrator accepted (counter).
    pub const SHARD_COMPLETED: &str = "shard.completed";
    /// Shards re-issued after a worker died, stalled, or produced a
    /// corrupt checkpoint (counter; zero on a fault-free run).
    pub const SHARD_REISSUED: &str = "shard.reissued";
    /// Worker processes the orchestrator killed for stalling or
    /// missing a shard deadline (counter).
    pub const SHARD_KILLED: &str = "shard.killed";
    /// Corrupt or mismatched shard checkpoints detected at
    /// completion or merge time (counter).
    pub const SHARD_CORRUPT: &str = "shard.corrupt";
    /// Wall-clock nanoseconds from a shard's first issue to its
    /// accepted completion, respawns included (histogram).
    pub const SHARD_SPAN_NS: &str = "shard.span_ns";
}

/// The typed sink for engine workloads: one atomic cell per key in
/// [`keys`], shared across threads behind an `Arc`.
///
/// Unknown keys are dropped, matching the [`MetricsSink`] contract.
#[derive(Debug, Default)]
pub struct EngineMetrics {
    runs: Counter,
    trials: Counter,
    wins: Counter,
    batches: Counter,
    recovered_batches: Counter,
    chaos_faults: Counter,
    dispatch_threshold: Counter,
    dispatch_oblivious: Counter,
    dispatch_opaque: Counter,
    rng_draws: Counter,
    rng_lane_blocks: Counter,
    pool_jobs: Counter,
    pool_batches: Counter,
    pool_panics: Counter,
    pool_respawns: Counter,
    pool_expired_jobs: Counter,
    pool_busy_ns: Counter,
    pool_idle_ns: Counter,
    sweep_points: Counter,
    sweep_checkpoint_writes: Counter,
    sweep_resumed_points: Counter,
    shard_issued: Counter,
    shard_completed: Counter,
    shard_reissued: Counter,
    shard_killed: Counter,
    shard_corrupt: Counter,
    pool_job_ns: Histogram,
    sweep_point_ns: Histogram,
    shard_span_ns: Histogram,
}

impl EngineMetrics {
    /// Creates an all-zero metrics registry.
    #[must_use]
    pub fn new() -> EngineMetrics {
        EngineMetrics::default()
    }

    /// Freezes the current values into a [`MetricsSnapshot`].
    ///
    /// Cells are read individually with relaxed ordering; snapshot
    /// between runs (not during one) for exact cross-cell totals.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            runs: self.runs.get(),
            trials: self.trials.get(),
            wins: self.wins.get(),
            batches: self.batches.get(),
            recovered_batches: self.recovered_batches.get(),
            chaos_faults: self.chaos_faults.get(),
            dispatch_threshold: self.dispatch_threshold.get(),
            dispatch_oblivious: self.dispatch_oblivious.get(),
            dispatch_opaque: self.dispatch_opaque.get(),
            rng_draws: self.rng_draws.get(),
            rng_lane_blocks: self.rng_lane_blocks.get(),
            pool_jobs: self.pool_jobs.get(),
            pool_batches: self.pool_batches.get(),
            pool_panics: self.pool_panics.get(),
            pool_respawns: self.pool_respawns.get(),
            pool_expired_jobs: self.pool_expired_jobs.get(),
            pool_busy_ns: self.pool_busy_ns.get(),
            pool_idle_ns: self.pool_idle_ns.get(),
            sweep_points: self.sweep_points.get(),
            sweep_checkpoint_writes: self.sweep_checkpoint_writes.get(),
            sweep_resumed_points: self.sweep_resumed_points.get(),
            shard_issued: self.shard_issued.get(),
            shard_completed: self.shard_completed.get(),
            shard_reissued: self.shard_reissued.get(),
            shard_killed: self.shard_killed.get(),
            shard_corrupt: self.shard_corrupt.get(),
            pool_job_ns: self.pool_job_ns.snapshot(),
            sweep_point_ns: self.sweep_point_ns.snapshot(),
            shard_span_ns: self.shard_span_ns.snapshot(),
        }
    }

    /// The current value of counter `key` (relaxed read of one cell),
    /// or `0` for a key the engine does not emit. Cheaper than
    /// [`EngineMetrics::snapshot`] when a caller needs a counter or
    /// two: it copies no other cell and allocates nothing.
    #[must_use]
    pub fn count(&self, key: &str) -> u64 {
        self.counter(key).map_or(0, Counter::get)
    }

    /// The counter cell behind `key`, if the engine emits it.
    fn counter(&self, key: &str) -> Option<&Counter> {
        Some(match key {
            keys::RUNS => &self.runs,
            keys::TRIALS => &self.trials,
            keys::WINS => &self.wins,
            keys::BATCHES => &self.batches,
            keys::RECOVERED_BATCHES => &self.recovered_batches,
            keys::CHAOS_FAULTS => &self.chaos_faults,
            keys::DISPATCH_THRESHOLD => &self.dispatch_threshold,
            keys::DISPATCH_OBLIVIOUS => &self.dispatch_oblivious,
            keys::DISPATCH_OPAQUE => &self.dispatch_opaque,
            keys::RNG_DRAWS => &self.rng_draws,
            keys::RNG_LANE_BLOCKS => &self.rng_lane_blocks,
            keys::POOL_JOBS => &self.pool_jobs,
            keys::POOL_BATCHES => &self.pool_batches,
            keys::POOL_PANICS => &self.pool_panics,
            keys::POOL_RESPAWNS => &self.pool_respawns,
            keys::POOL_EXPIRED_JOBS => &self.pool_expired_jobs,
            keys::POOL_BUSY_NS => &self.pool_busy_ns,
            keys::POOL_IDLE_NS => &self.pool_idle_ns,
            keys::SWEEP_POINTS => &self.sweep_points,
            keys::SWEEP_CHECKPOINT_WRITES => &self.sweep_checkpoint_writes,
            keys::SWEEP_RESUMED_POINTS => &self.sweep_resumed_points,
            keys::SHARD_ISSUED => &self.shard_issued,
            keys::SHARD_COMPLETED => &self.shard_completed,
            keys::SHARD_REISSUED => &self.shard_reissued,
            keys::SHARD_KILLED => &self.shard_killed,
            keys::SHARD_CORRUPT => &self.shard_corrupt,
            _ => return None,
        })
    }
}

impl MetricsSink for EngineMetrics {
    fn add(&self, key: &'static str, n: u64) {
        if let Some(counter) = self.counter(key) {
            counter.add(n);
        }
    }

    fn record(&self, key: &'static str, value: u64) {
        match key {
            keys::POOL_JOB_SPAN_NS => self.pool_job_ns.record(value),
            keys::SWEEP_POINT_SPAN_NS => self.sweep_point_ns.record(value),
            keys::SHARD_SPAN_NS => self.shard_span_ns.record(value),
            _ => {}
        }
    }
}

/// A frozen copy of an [`EngineMetrics`] registry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Completed `run*` calls.
    pub runs: u64,
    /// Trials simulated across all runs.
    pub trials: u64,
    /// Winning trials across all runs.
    pub wins: u64,
    /// Batches executed across all runs, every path.
    pub batches: u64,
    /// Batch re-executions performed by the fault-recovery layer.
    pub recovered_batches: u64,
    /// Chaos faults armed by a `ChaosPlan`.
    pub chaos_faults: u64,
    /// Runs dispatched onto the monomorphized threshold kernel.
    pub dispatch_threshold: u64,
    /// Runs dispatched onto the monomorphized oblivious kernel.
    pub dispatch_oblivious: u64,
    /// Runs dispatched onto the generic per-decision fallback.
    pub dispatch_opaque: u64,
    /// Uniform samples handed to trial loops (logical draws).
    pub rng_draws: u64,
    /// Threefry-4×64 counter blocks evaluated by the lane kernel.
    pub rng_lane_blocks: u64,
    /// Jobs executed by pool workers.
    pub pool_jobs: u64,
    /// Batches drained through the persistent pool's shared counter.
    pub pool_batches: u64,
    /// Job panics recovered by pool workers.
    pub pool_panics: u64,
    /// Dead worker threads replaced by the pool supervisor.
    pub pool_respawns: u64,
    /// Jobs discarded because their deadline passed before pickup.
    pub pool_expired_jobs: u64,
    /// Total nanoseconds pool workers spent running jobs.
    pub pool_busy_ns: u64,
    /// Total nanoseconds pool workers spent parked on the job queue.
    pub pool_idle_ns: u64,
    /// Grid points evaluated by Monte-Carlo sweeps.
    pub sweep_points: u64,
    /// Checkpoint files written by checkpointed sweeps.
    pub sweep_checkpoint_writes: u64,
    /// Grid points skipped on resume (already checkpointed).
    pub sweep_resumed_points: u64,
    /// Shards handed to worker processes (re-issues included).
    pub shard_issued: u64,
    /// Shards completed by workers and accepted.
    pub shard_completed: u64,
    /// Shards re-issued after a worker failure.
    pub shard_reissued: u64,
    /// Worker processes killed by the orchestrator.
    pub shard_killed: u64,
    /// Corrupt or mismatched shard checkpoints detected.
    pub shard_corrupt: u64,
    /// Distribution of per-job pool busy times (nanoseconds).
    pub pool_job_ns: HistogramSnapshot,
    /// Distribution of per-grid-point sweep times (nanoseconds).
    pub sweep_point_ns: HistogramSnapshot,
    /// Distribution of shard issue-to-completion times (nanoseconds).
    pub shard_span_ns: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// Every counter as a `(key, value)` row, in [`keys`] order.
    #[must_use]
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            (keys::RUNS, self.runs),
            (keys::TRIALS, self.trials),
            (keys::WINS, self.wins),
            (keys::BATCHES, self.batches),
            (keys::RECOVERED_BATCHES, self.recovered_batches),
            (keys::CHAOS_FAULTS, self.chaos_faults),
            (keys::DISPATCH_THRESHOLD, self.dispatch_threshold),
            (keys::DISPATCH_OBLIVIOUS, self.dispatch_oblivious),
            (keys::DISPATCH_OPAQUE, self.dispatch_opaque),
            (keys::RNG_DRAWS, self.rng_draws),
            (keys::RNG_LANE_BLOCKS, self.rng_lane_blocks),
            (keys::POOL_JOBS, self.pool_jobs),
            (keys::POOL_BATCHES, self.pool_batches),
            (keys::POOL_PANICS, self.pool_panics),
            (keys::POOL_RESPAWNS, self.pool_respawns),
            (keys::POOL_EXPIRED_JOBS, self.pool_expired_jobs),
            (keys::POOL_BUSY_NS, self.pool_busy_ns),
            (keys::POOL_IDLE_NS, self.pool_idle_ns),
            (keys::SWEEP_POINTS, self.sweep_points),
            (keys::SWEEP_CHECKPOINT_WRITES, self.sweep_checkpoint_writes),
            (keys::SWEEP_RESUMED_POINTS, self.sweep_resumed_points),
            (keys::SHARD_ISSUED, self.shard_issued),
            (keys::SHARD_COMPLETED, self.shard_completed),
            (keys::SHARD_REISSUED, self.shard_reissued),
            (keys::SHARD_KILLED, self.shard_killed),
            (keys::SHARD_CORRUPT, self.shard_corrupt),
        ]
    }

    /// Fraction of pool wall-clock spent running jobs, or zero when
    /// the pool never span up.
    #[must_use]
    pub fn pool_utilization(&self) -> f64 {
        let total = self.pool_busy_ns + self.pool_idle_ns;
        if total == 0 {
            return 0.0;
        }
        self.pool_busy_ns as f64 / total as f64
    }

    /// Serializes the snapshot as an `engine-metrics/v1` JSON
    /// document (hand-rolled, same style as `results/BENCH_*.json`).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"engine-metrics/v1\",\n");
        let _ = writeln!(
            out,
            "  \"rng_stream_version\": {},",
            crate::RNG_STREAM_VERSION
        );
        out.push_str("  \"counters\": {\n");
        let counters = self.counters();
        for (i, (key, value)) in counters.iter().enumerate() {
            let comma = if i + 1 < counters.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{key}\": {value}{comma}");
        }
        out.push_str("  },\n");
        out.push_str("  \"histograms\": {\n");
        let histograms = [
            (keys::POOL_JOB_SPAN_NS, &self.pool_job_ns),
            (keys::SWEEP_POINT_SPAN_NS, &self.sweep_point_ns),
            (keys::SHARD_SPAN_NS, &self.shard_span_ns),
        ];
        for (i, (key, histogram)) in histograms.iter().enumerate() {
            let comma = if i + 1 < histograms.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{key}\": {}{comma}", histogram_json(histogram));
        }
        out.push_str("  }\n");
        out.push_str("}\n");
        out
    }

    /// Writes [`MetricsSnapshot::to_json`] to `path`, creating parent
    /// directories as needed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from file creation and writing.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_json().as_bytes())
    }
}

/// One histogram as a single-line JSON object.
fn histogram_json(histogram: &HistogramSnapshot) -> String {
    let buckets: Vec<String> = histogram
        .buckets
        .iter()
        .map(|b| format!("{{\"le\": {}, \"count\": {}}}", b.le, b.count))
        .collect();
    format!(
        "{{\"count\": {}, \"sum\": {}, \"buckets\": [{}]}}",
        histogram.count,
        histogram.sum,
        buckets.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_routes_known_keys_and_drops_unknown_ones() {
        let m = EngineMetrics::new();
        m.add(keys::TRIALS, 100);
        m.add(keys::WINS, 40);
        m.add("not.a.key", 7);
        let snap = m.snapshot();
        assert_eq!(snap.trials, 100);
        assert_eq!(snap.wins, 40);
        assert_eq!(snap.runs, 0);
        assert_eq!(m.count(keys::TRIALS), 100);
        assert_eq!(m.count("not.a.key"), 0);
    }

    #[test]
    fn record_routes_to_the_named_histogram() {
        let m = EngineMetrics::new();
        m.record(keys::SWEEP_POINT_SPAN_NS, 1_000);
        m.record(keys::POOL_JOB_SPAN_NS, 2_000);
        m.record("not.a.histogram", 3_000);
        let snap = m.snapshot();
        assert_eq!(snap.sweep_point_ns.count, 1);
        assert_eq!(snap.sweep_point_ns.sum, 1_000);
        assert_eq!(snap.pool_job_ns.count, 1);
    }

    #[test]
    fn counters_listing_covers_every_counter_key() {
        let m = EngineMetrics::new();
        let listed = m.snapshot().counters();
        // Every listed key routes back to a live cell...
        for (key, _) in &listed {
            m.add(key, 1);
        }
        // ...and the snapshot, like a single-cell read, reflects each
        // increment exactly once.
        assert!(m.snapshot().counters().iter().all(|(_, v)| *v == 1));
        assert!(listed.iter().all(|(key, _)| m.count(key) == 1));
        assert_eq!(listed.len(), 26);
    }

    #[test]
    fn shard_ledger_keys_route_to_their_cells() {
        let m = EngineMetrics::new();
        m.add(keys::SHARD_ISSUED, 4);
        m.add(keys::SHARD_COMPLETED, 3);
        m.add(keys::SHARD_REISSUED, 1);
        m.add(keys::SHARD_KILLED, 1);
        m.add(keys::SHARD_CORRUPT, 1);
        m.record(keys::SHARD_SPAN_NS, 5_000);
        let snap = m.snapshot();
        assert_eq!(snap.shard_issued, 4);
        assert_eq!(snap.shard_completed, 3);
        assert_eq!(snap.shard_reissued, 1);
        assert_eq!(snap.shard_killed, 1);
        assert_eq!(snap.shard_corrupt, 1);
        assert_eq!(snap.shard_span_ns.count, 1);
        assert_eq!(snap.shard_span_ns.sum, 5_000);
        assert!(snap.to_json().contains("\"shard.span_ns\""));
    }

    #[test]
    fn pool_utilization_is_busy_over_total() {
        let snap = MetricsSnapshot {
            pool_busy_ns: 300,
            pool_idle_ns: 100,
            ..MetricsSnapshot::default()
        };
        assert!((snap.pool_utilization() - 0.75).abs() < f64::EPSILON);
        assert!(MetricsSnapshot::default().pool_utilization().abs() < f64::EPSILON);
    }

    #[test]
    fn json_document_has_the_v1_shape() {
        let m = EngineMetrics::new();
        m.add(keys::TRIALS, 12);
        m.record(keys::SWEEP_POINT_SPAN_NS, 99);
        let json = m.snapshot().to_json();
        assert!(json.contains("\"schema\": \"engine-metrics/v1\""));
        assert!(json.contains(&format!(
            "\"rng_stream_version\": {}",
            crate::RNG_STREAM_VERSION
        )));
        assert!(json.contains("\"engine.trials\": 12"));
        assert!(json.contains("\"sweep.point_ns\": {\"count\": 1, \"sum\": 99"));
        // Balanced braces: a cheap well-formedness smoke test.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn write_json_round_trips_through_the_filesystem() {
        let dir = std::env::temp_dir().join("nocomm-metrics-json-test");
        let path = dir.join("engine_metrics.json");
        let m = EngineMetrics::new();
        m.add(keys::RUNS, 1);
        m.snapshot().write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, m.snapshot().to_json());
        std::fs::remove_dir_all(&dir).ok();
    }
}
