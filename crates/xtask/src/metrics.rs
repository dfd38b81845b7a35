//! `cargo xtask metrics-check <path>` — validator for the
//! `engine-metrics/v1` JSON documents written by
//! `MetricsSnapshot::write_json` (and emitted by the
//! `engine_metrics` example).
//!
//! CI runs the example and then this check, so a drifting field name,
//! a silently dropped counter, or a histogram whose buckets stop
//! summing to its count fails the pipeline instead of producing
//! unreadable artifacts. The document is read with the workspace's
//! one JSON parser ([`json::parse`]); a counter or bucket that is not
//! a non-negative `u64` is itself a finding.

use json::{field, Json};

/// Counter keys an `engine-metrics/v1` document must carry, matching
/// the simulator's `keys` module one for one.
pub const REQUIRED_COUNTERS: &[&str] = &[
    "engine.runs",
    "engine.trials",
    "engine.wins",
    "engine.batches",
    "engine.recovered_batches",
    "chaos.faults",
    "engine.dispatch.threshold",
    "engine.dispatch.oblivious",
    "engine.dispatch.opaque",
    "rng.draws",
    "rng.lane_blocks",
    "pool.jobs",
    "pool.batches",
    "pool.panics",
    "pool.respawns",
    "pool.expired_jobs",
    "pool.busy_ns",
    "pool.idle_ns",
    "sweep.points",
    "sweep.checkpoint_writes",
    "sweep.resumed_points",
    "shard.issued",
    "shard.completed",
    "shard.reissued",
    "shard.killed",
    "shard.corrupt",
    "analytic.memo_hits",
    "analytic.memo_misses",
];

/// Histogram keys an `engine-metrics/v1` document must carry.
pub const REQUIRED_HISTOGRAMS: &[&str] = &["pool.job_ns", "sweep.point_ns", "shard.span_ns"];

/// What a valid document contained, for the success report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricsSummary {
    /// Value of the `rng_stream_version` field.
    pub rng_stream_version: u64,
    /// Number of counters present (required plus any extras).
    pub counters: usize,
    /// Number of histograms present.
    pub histograms: usize,
    /// Total samples across all histograms.
    pub samples: u64,
}

impl std::fmt::Display for MetricsSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "engine-metrics/v1 (rng stream v{}): {} counters, {} histograms, {} samples",
            self.rng_stream_version, self.counters, self.histograms, self.samples
        )
    }
}

/// Validates the text of an `engine-metrics/v1` document.
///
/// # Errors
///
/// Returns a `path-free` description of the first structural problem:
/// malformed JSON, wrong schema tag, a missing or negative counter, a
/// malformed histogram, or bucket counts that do not sum to the
/// histogram's total.
pub fn validate_metrics_document(text: &str) -> Result<MetricsSummary, String> {
    let root = json::parse(text)?;
    let doc = root.fields("document root")?;

    let schema = field(doc, "schema", "document root")?.str("schema")?;
    if schema != "engine-metrics/v1" {
        return Err(format!(
            "schema is {schema:?}, expected \"engine-metrics/v1\""
        ));
    }
    let rng_stream_version =
        field(doc, "rng_stream_version", "document root")?.u64("rng_stream_version")?;
    if rng_stream_version == 0 {
        return Err("rng_stream_version must be at least 1".to_owned());
    }

    let counters = field(doc, "counters", "document root")?.fields("counters")?;
    for key in REQUIRED_COUNTERS {
        field(counters, key, "counters")?.u64(key)?;
    }
    for (key, value) in counters {
        value.u64(key)?;
    }

    let histograms = field(doc, "histograms", "document root")?.fields("histograms")?;
    let mut samples = 0u64;
    for key in REQUIRED_HISTOGRAMS {
        samples += check_histogram(key, field(histograms, key, "histograms")?)?;
    }
    for (key, value) in histograms {
        if !REQUIRED_HISTOGRAMS.contains(&key.as_ref()) {
            samples += check_histogram(key, value)?;
        }
    }

    Ok(MetricsSummary {
        rng_stream_version,
        counters: counters.len(),
        histograms: histograms.len(),
        samples,
    })
}

/// Checks one histogram object: `count`/`sum` fields, buckets with
/// strictly increasing `le` bounds, and bucket counts summing exactly
/// to `count`. Returns the histogram's sample count.
fn check_histogram(key: &str, value: &Json<'_>) -> Result<u64, String> {
    let hist = value.fields(key)?;
    let count = field(hist, "count", key)?.u64("count")?;
    let _ = field(hist, "sum", key)?.u64("sum")?;
    let buckets = field(hist, "buckets", key)?.items("buckets")?;
    let mut total = 0u64;
    let mut last_le: Option<u64> = None;
    for bucket in buckets {
        let b = bucket.fields("bucket")?;
        let le = field(b, "le", "bucket")?.u64("le")?;
        if last_le.is_some_and(|prev| le <= prev) {
            return Err(format!(
                "histogram {key:?}: bucket bounds not strictly increasing"
            ));
        }
        last_le = Some(le);
        total += field(b, "count", "bucket")?.u64("count")?;
    }
    if total != count {
        return Err(format!(
            "histogram {key:?}: buckets sum to {total}, count says {count}"
        ));
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    /// A minimal valid document: every required counter at zero, both
    /// required histograms empty.
    fn valid_document() -> String {
        let mut counters = String::new();
        for (i, key) in REQUIRED_COUNTERS.iter().enumerate() {
            let comma = if i + 1 < REQUIRED_COUNTERS.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(counters, "    {key:?}: 0{comma}");
        }
        format!(
            "{{\n  \"schema\": \"engine-metrics/v1\",\n  \"rng_stream_version\": 2,\n  \
             \"counters\": {{\n{counters}  }},\n  \"histograms\": {{\n    \
             \"pool.job_ns\": {{\"count\": 0, \"sum\": 0, \"buckets\": []}},\n    \
             \"sweep.point_ns\": {{\"count\": 3, \"sum\": 900, \"buckets\": \
             [{{\"le\": 255, \"count\": 1}}, {{\"le\": 511, \"count\": 2}}]}},\n    \
             \"shard.span_ns\": {{\"count\": 0, \"sum\": 0, \"buckets\": []}}\n  }}\n}}\n"
        )
    }

    #[test]
    fn valid_document_passes_and_summarizes() {
        let summary = validate_metrics_document(&valid_document()).expect("valid");
        assert_eq!(
            summary,
            MetricsSummary {
                rng_stream_version: 2,
                counters: REQUIRED_COUNTERS.len(),
                histograms: 3,
                samples: 3,
            }
        );
        assert!(summary.to_string().contains("28 counters"));
    }

    #[test]
    fn wrong_schema_tag_is_rejected() {
        let doc = valid_document().replace("engine-metrics/v1", "engine-metrics/v0");
        let err = validate_metrics_document(&doc).expect_err("schema mismatch");
        assert!(err.contains("engine-metrics/v1"), "{err}");
    }

    #[test]
    fn each_missing_counter_is_reported() {
        for key in REQUIRED_COUNTERS {
            let doc = valid_document().replace(&format!("{key:?}"), &format!("\"x.{key}\""));
            let err = validate_metrics_document(&doc).expect_err("missing counter");
            assert!(err.contains(key), "{key}: {err}");
        }
    }

    #[test]
    fn negative_and_fractional_counters_are_rejected() {
        let negative = valid_document().replace("\"rng.draws\": 0", "\"rng.draws\": -4");
        assert!(validate_metrics_document(&negative)
            .expect_err("negative")
            .contains("rng.draws"));
        let fractional = valid_document().replace("\"rng.draws\": 0", "\"rng.draws\": 0.5");
        assert!(validate_metrics_document(&fractional)
            .expect_err("fractional")
            .contains("rng.draws"));
    }

    #[test]
    fn bucket_sum_mismatch_is_rejected() {
        let doc =
            valid_document().replace("\"count\": 3, \"sum\": 900", "\"count\": 4, \"sum\": 900");
        let err = validate_metrics_document(&doc).expect_err("sum mismatch");
        assert!(err.contains("buckets sum to 3, count says 4"), "{err}");
    }

    #[test]
    fn unordered_bucket_bounds_are_rejected() {
        let doc =
            valid_document().replace("{\"le\": 511, \"count\": 2}", "{\"le\": 255, \"count\": 2}");
        let err = validate_metrics_document(&doc).expect_err("duplicate bound");
        assert!(err.contains("strictly increasing"), "{err}");
    }

    #[test]
    fn real_writer_output_validates() {
        // The committed example artifact, when present, must satisfy
        // the checker — this pins writer and checker to one schema.
        let path = crate::repo_root().join("results/engine_metrics.json");
        if let Ok(text) = std::fs::read_to_string(path) {
            let summary = validate_metrics_document(&text).expect("committed artifact");
            assert_eq!(summary.rng_stream_version, 7);
        }
    }
}
