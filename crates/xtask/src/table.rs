//! Validation of the committed `threshold-table/v1` artifact
//! (`results/threshold_table.json`), the certified optimal-threshold
//! table produced by `cargo xtask table`.
//!
//! The document is read by the table's own reader,
//! [`ThresholdTable::from_json`], which owns the schema. This module
//! adds the certified invariants over its rows (contiguous `n` from 2,
//! well-ordered enclosures inside `(0, 1)`, certified widths); the
//! caller follows up with semantic spot re-certification of a few
//! rows via [`decision::certified::spot_check`].

use decision::certified::{ThresholdRow, ThresholdTable};

/// Certified width bound every enclosure must satisfy (matches the
/// generator's acceptance target).
pub const WIDTH_BOUND: f64 = 1e-9;

/// Parses a `threshold-table/v1` document and checks its certified
/// invariants.
///
/// # Errors
///
/// Returns a message naming the first problem: a document the reader
/// rejects, no rows, non-contiguous `n`, or an enclosure that is
/// inverted, out of `(0, 1)` (`p_hi` may touch 1) or wider than
/// [`WIDTH_BOUND`].
pub fn validate_table_document(text: &str) -> Result<ThresholdTable, String> {
    let table = ThresholdTable::from_json(text)?;
    if table.rows().is_empty() {
        return Err("rows must be non-empty".to_string());
    }
    for (idx, row) in table.rows().iter().enumerate() {
        check_row(idx, row)?;
    }
    Ok(table)
}

/// The invariants of row `idx`: `n = idx + 2` and both enclosures
/// certified.
fn check_row(idx: usize, row: &ThresholdRow) -> Result<(), String> {
    let expect = idx as u64 + 2;
    if u64::from(row.n) != expect {
        return Err(format!(
            "rows[{idx}]: n must be contiguous from 2 (expected {expect}, found {})",
            row.n
        ));
    }
    check_enclosure(idx, "beta", row.beta_lo, row.beta_hi, false)?;
    check_enclosure(idx, "p", row.p_lo, row.p_hi, true)
}

/// A certified enclosure must be well-ordered, interior to `(0, 1)`
/// (the upper end may touch 1 when `allow_one`), and no wider than
/// [`WIDTH_BOUND`].
fn check_enclosure(
    idx: usize,
    what: &str,
    lo: f64,
    hi: f64,
    allow_one: bool,
) -> Result<(), String> {
    if !(lo.is_finite() && hi.is_finite()) {
        return Err(format!("rows[{idx}]: {what} enclosure must be finite"));
    }
    if lo > hi {
        return Err(format!(
            "rows[{idx}]: {what} enclosure is inverted ({lo} > {hi})"
        ));
    }
    let hi_ok = if allow_one { hi <= 1.0 } else { hi < 1.0 };
    if lo <= 0.0 || !hi_ok {
        return Err(format!(
            "rows[{idx}]: {what} enclosure [{lo}, {hi}] leaves the open unit interval"
        ));
    }
    if hi - lo > WIDTH_BOUND {
        return Err(format!(
            "rows[{idx}]: {what} enclosure width {:e} exceeds {WIDTH_BOUND:e}",
            hi - lo
        ));
    }
    Ok(())
}

/// Picks up to `count` row indices spread across the table (always
/// including the first and last) for semantic spot re-certification.
#[must_use]
pub fn spot_indices(len: usize, count: usize) -> Vec<usize> {
    if len == 0 || count == 0 {
        return Vec::new();
    }
    let picks = count.min(len);
    let mut out: Vec<usize> = (0..picks)
        .map(|i| {
            if picks == 1 {
                0
            } else {
                i * (len - 1) / (picks - 1)
            }
        })
        .collect();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(rows: &str) -> String {
        format!(
            "{{\n  \"schema\": \"threshold-table/v1\",\n  \"delta_rule\": \"n/3\",\n  \"rows\": [\n{rows}\n  ]\n}}\n"
        )
    }

    fn row(n: u64, lo: f64, hi: f64) -> String {
        format!(
            "    {{\"n\": {n}, \"method\": \"exact\", \"beta_lo\": {lo}, \"beta_hi\": {hi}, \"p_lo\": 0.25, \"p_hi\": 0.25}}"
        )
    }

    #[test]
    fn accepts_a_well_formed_table() {
        let text = doc(&format!(
            "{},\n{}",
            row(2, 0.444, 0.444),
            row(3, 0.622, 0.622)
        ));
        let table = validate_table_document(&text).unwrap();
        let rows = table.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].n, 3);
        assert_eq!(rows[0].method, "exact");
    }

    #[test]
    fn rejects_schema_rule_and_shape_problems() {
        assert!(validate_table_document("{}").is_err());
        let bad_schema = doc(&row(2, 0.4, 0.4)).replace("threshold-table/v1", "threshold-table/v0");
        assert!(validate_table_document(&bad_schema)
            .unwrap_err()
            .contains("schema"));
        let bad_rule = doc(&row(2, 0.4, 0.4)).replace("n/3", "n/2");
        assert!(validate_table_document(&bad_rule)
            .unwrap_err()
            .contains("delta_rule"));
        let empty = doc("").replace("[\n\n  ]", "[]");
        assert!(validate_table_document(&empty).is_err());
    }

    #[test]
    fn rejects_gapped_inverted_wide_and_boundary_rows() {
        let gapped = doc(&format!("{},\n{}", row(2, 0.4, 0.4), row(4, 0.6, 0.6)));
        assert!(validate_table_document(&gapped)
            .unwrap_err()
            .contains("contiguous"));
        let inverted = doc(&row(2, 0.5, 0.4));
        assert!(validate_table_document(&inverted)
            .unwrap_err()
            .contains("inverted"));
        let wide = doc(&row(2, 0.4, 0.41));
        assert!(validate_table_document(&wide)
            .unwrap_err()
            .contains("width"));
        let at_zero = doc(&row(2, 0.0, 0.0));
        assert!(validate_table_document(&at_zero)
            .unwrap_err()
            .contains("unit interval"));
        let bad_method = doc(&row(2, 0.4, 0.4)).replace("exact", "guessed");
        assert!(validate_table_document(&bad_method)
            .unwrap_err()
            .contains("method"));
    }

    #[test]
    fn spot_indices_cover_both_ends() {
        assert_eq!(spot_indices(127, 5), vec![0, 31, 63, 94, 126]);
        assert_eq!(spot_indices(3, 5), vec![0, 1, 2]);
        assert_eq!(spot_indices(1, 5), vec![0]);
        assert!(spot_indices(0, 5).is_empty());
    }
}
