//! `cargo xtask bench-check <fresh> <committed>` — regression gate
//! comparing a freshly measured benchmark JSON (the `--quick` output
//! of `cargo bench`) against the committed reference under
//! `results/BENCH_*.json`.
//!
//! The gate is on **speedups**, not absolute times: absolute
//! nanoseconds vary with the host, but the paired min-time ratio of
//! optimized-over-baseline is the quantity the committed file
//! attests. A fresh speedup may beat the committed one freely; it
//! fails the gate when it falls below the committed value by more
//! than the tolerance band
//!
//! ```text
//! tolerance(committed) = max(0.25 × committed, 0.15)
//! ```
//!
//! — a quarter of the attested ratio (shared-runner noise scales with
//! the ratio itself) floored at 0.15 absolute so near-1.0x overhead
//! rows don't get a vanishing band. Every committed row must be
//! present in the fresh measurement: a label that disappears is a
//! silently dropped benchmark, which is itself a regression. Extra
//! fresh rows are allowed (new benchmarks land before the reference
//! is re-recorded).

use json::field;

/// Speedup slack as a fraction of the committed ratio.
const RELATIVE_TOLERANCE: f64 = 0.25;
/// Absolute floor of the tolerance band.
const ABSOLUTE_TOLERANCE: f64 = 0.15;

/// One `{label, speedup}` row from a bench document.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRow {
    /// The row's label, e.g. `"threshold n = 8 · lane"`.
    pub label: String,
    /// The paired min-time speedup recorded for the row.
    pub speedup: f64,
}

/// What a passing comparison covered, for the success report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BenchCheckSummary {
    /// Number of committed rows compared.
    pub rows: usize,
}

impl std::fmt::Display for BenchCheckSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} row(s) within the tolerance band (fresh ≥ committed − max({RELATIVE_TOLERANCE} × committed, {ABSOLUTE_TOLERANCE}))",
            self.rows
        )
    }
}

/// The minimum fresh speedup the band accepts for a committed ratio.
#[must_use]
pub fn floor_for(committed: f64) -> f64 {
    committed - (RELATIVE_TOLERANCE * committed).max(ABSOLUTE_TOLERANCE)
}

/// Parses a `write_bench_json` document into its rows.
///
/// # Errors
///
/// Returns a description of the first structural problem: malformed
/// JSON, a missing `bench`/`results` field, or a row without a string
/// `label` / numeric `speedup`.
pub fn parse_bench_document(text: &str) -> Result<Vec<BenchRow>, String> {
    let root = json::parse(text)?;
    let doc = root.fields("document root")?;
    field(doc, "bench", "document root")?.str("bench")?;
    let results = field(doc, "results", "document root")?.items("results")?;
    let mut rows = Vec::with_capacity(results.len());
    for row in results {
        let fields = row.fields("results row")?;
        let label = field(fields, "label", "results row")?
            .str("label")?
            .to_owned();
        let speedup = field(fields, "speedup", "results row")?.f64("speedup")?;
        if speedup < 0.0 {
            return Err(format!(
                "row {label:?}: speedup must be non-negative, found {speedup}"
            ));
        }
        rows.push(BenchRow { label, speedup });
    }
    if rows.is_empty() {
        return Err("results must contain at least one row".to_owned());
    }
    Ok(rows)
}

/// Compares a fresh measurement against the committed reference.
///
/// # Errors
///
/// Returns one message per failure, joined by newlines: every
/// committed label missing from the fresh rows, and every fresh
/// speedup below its row's tolerance floor.
pub fn compare_bench_rows(
    fresh: &[BenchRow],
    committed: &[BenchRow],
) -> Result<BenchCheckSummary, String> {
    let mut failures = Vec::new();
    for reference in committed {
        match fresh.iter().find(|r| r.label == reference.label) {
            None => failures.push(format!(
                "row {:?}: present in the committed reference but missing from the fresh measurement",
                reference.label
            )),
            Some(row) => {
                let floor = floor_for(reference.speedup);
                if row.speedup < floor {
                    failures.push(format!(
                        "row {:?}: fresh speedup {:.3}x fell below the tolerance floor {:.3}x (committed {:.3}x)",
                        reference.label, row.speedup, floor, reference.speedup
                    ));
                }
            }
        }
    }
    if failures.is_empty() {
        Ok(BenchCheckSummary {
            rows: committed.len(),
        })
    } else {
        Err(failures.join("\n"))
    }
}

/// Validates a fresh-vs-committed pair of bench documents.
///
/// # Errors
///
/// Returns the first parse failure (tagged with which side failed),
/// or the joined comparison failures.
pub fn check_bench_documents(
    fresh_text: &str,
    committed_text: &str,
) -> Result<BenchCheckSummary, String> {
    let fresh = parse_bench_document(fresh_text).map_err(|e| format!("fresh document: {e}"))?;
    let committed =
        parse_bench_document(committed_text).map_err(|e| format!("committed document: {e}"))?;
    compare_bench_rows(&fresh, &committed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(rows: &[(&str, f64)]) -> String {
        let body: Vec<String> = rows
            .iter()
            .map(|(label, speedup)| {
                format!(
                    "    {{\"label\": \"{label}\", \"cold_ns\": 1000.0, \"memoized_ns\": 500.0, \"speedup\": {speedup:.3}}}"
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"simulator_throughput\",\n  \"results\": [\n{}\n  ]\n}}\n",
            body.join(",\n")
        )
    }

    #[test]
    fn identical_documents_pass() {
        let text = doc(&[("threshold n = 8 · lane", 4.380), ("buffered", 0.931)]);
        let summary = check_bench_documents(&text, &text).expect("identical documents pass");
        assert_eq!(summary.rows, 2);
    }

    #[test]
    fn fresh_above_committed_passes() {
        let committed = doc(&[("lane", 4.0)]);
        let fresh = doc(&[("lane", 5.2)]);
        assert!(check_bench_documents(&fresh, &committed).is_ok());
    }

    #[test]
    fn tolerance_band_scales_with_the_committed_ratio() {
        // 25% of 4.0 is 1.0 > 0.15: the relative term governs.
        assert!((floor_for(4.0) - 3.0).abs() < 1e-12);
        // 25% of 0.93 is 0.2325 > 0.15: still relative.
        assert!((floor_for(0.93) - 0.6975).abs() < 1e-12);
        // 25% of 0.4 is 0.1 < 0.15: the absolute floor governs.
        assert!((floor_for(0.4) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn synthetic_regression_fixture_fails() {
        // The committed reference attests 4.38x on the lane row; a
        // synthetic regression to 2.9x (below the 3.285x floor) must
        // fail the gate while the healthy row stays quiet.
        let committed = doc(&[
            ("threshold n = 8 · lane", 4.380),
            ("threshold n = 8 · kernel+buffered", 2.592),
        ]);
        let regressed = doc(&[
            ("threshold n = 8 · lane", 2.900),
            ("threshold n = 8 · kernel+buffered", 2.500),
        ]);
        let message = check_bench_documents(&regressed, &committed)
            .expect_err("synthetic regression must fail");
        assert!(message.contains("threshold n = 8 · lane"));
        assert!(message.contains("2.900x"));
        assert!(!message.contains("kernel+buffered"));
    }

    #[test]
    fn within_band_regression_passes() {
        let committed = doc(&[("lane", 4.0)]);
        let fresh = doc(&[("lane", 3.1)]); // floor is 3.0
        assert!(check_bench_documents(&fresh, &committed).is_ok());
    }

    #[test]
    fn missing_committed_row_fails() {
        let committed = doc(&[("lane", 4.0), ("buffered", 0.93)]);
        let fresh = doc(&[("lane", 4.1)]);
        let message = check_bench_documents(&fresh, &committed).expect_err("dropped row must fail");
        assert!(message.contains("buffered"));
        assert!(message.contains("missing from the fresh measurement"));
    }

    #[test]
    fn extra_fresh_rows_are_allowed() {
        let committed = doc(&[("lane", 4.0)]);
        let fresh = doc(&[("lane", 4.1), ("brand new row", 1.5)]);
        assert!(check_bench_documents(&fresh, &committed).is_ok());
    }

    #[test]
    fn near_one_rows_get_the_absolute_floor() {
        // Metrics-overhead rows sit at ≈1.0x; a quarter-relative band
        // would be 0.25 wide, but the absolute floor only matters
        // below 0.6x committed. Check a genuine overhead blowup still
        // fails: committed 1.000, fresh 0.70 < floor 0.75.
        let committed = doc(&[("threshold n = 8 · kernel+metrics", 1.000)]);
        let fresh = doc(&[("threshold n = 8 · kernel+metrics", 0.700)]);
        assert!(check_bench_documents(&fresh, &committed).is_err());
    }

    #[test]
    fn malformed_documents_are_tagged_by_side() {
        let good = doc(&[("lane", 4.0)]);
        let err = check_bench_documents("not json", &good).expect_err("bad fresh side");
        assert!(err.starts_with("fresh document:"));
        let err = check_bench_documents(&good, "{}").expect_err("bad committed side");
        assert!(err.starts_with("committed document:"));
    }

    #[test]
    fn rejects_non_finite_and_missing_fields() {
        let no_speedup = "{\n  \"bench\": \"x\",\n  \"results\": [{\"label\": \"a\"}]\n}";
        assert!(parse_bench_document(no_speedup)
            .expect_err("missing speedup")
            .contains("speedup"));
        let empty = "{\n  \"bench\": \"x\",\n  \"results\": []\n}";
        assert!(parse_bench_document(empty)
            .expect_err("empty results")
            .contains("at least one row"));
    }

    #[test]
    fn committed_reference_parses_and_self_compares() {
        // The real committed artifact must stay parseable by this
        // gate and trivially pass against itself.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/BENCH_simulator_throughput.json"
        );
        let text = std::fs::read_to_string(path).expect("committed bench artifact exists");
        let rows = parse_bench_document(&text).expect("committed bench artifact parses");
        assert!(rows.iter().any(|r| r.label == "threshold n = 8 · lane"));
        let summary = compare_bench_rows(&rows, &rows).expect("self-comparison passes");
        assert_eq!(summary.rows, rows.len());
    }
}
