//! The serialized optimal-threshold table: rows of certified
//! enclosures and their `threshold-table/v1` JSON form, with its one
//! writer ([`ThresholdTable::to_json`]) and its one reader
//! ([`ThresholdTable::from_json`]).
//!
//! Serialization is deterministic: endpoints are printed with Rust's
//! shortest-round-trip `f64` formatting, so re-parsing any emitted
//! number recovers the exact bit pattern and regenerating an
//! unchanged table is byte-identical.

use super::CertifiedThreshold;
use json::Json;
use std::fmt::Write as _;

/// Schema tag of the serialized table.
pub const SCHEMA: &str = "threshold-table/v1";

/// The capacity rule every row is certified under.
const DELTA_RULE: &str = "n/3";

/// One serialized row: the flattened form of a
/// [`CertifiedThreshold`].
#[derive(Clone, Debug, PartialEq)]
pub struct ThresholdRow {
    /// Number of players.
    pub n: u32,
    /// Lower bound of the certified `β*_n` enclosure.
    pub beta_lo: f64,
    /// Upper bound of the certified `β*_n` enclosure.
    pub beta_hi: f64,
    /// Lower bound of the certified `P*_n` enclosure.
    pub p_lo: f64,
    /// Upper bound of the certified `P*_n` enclosure.
    pub p_hi: f64,
    /// Name of the pipeline that certified the row (`"exact"` or
    /// `"ball"`).
    pub method: &'static str,
}

impl ThresholdRow {
    /// Flattens a certified result into its table row.
    #[must_use]
    pub fn from_certified(row: &CertifiedThreshold) -> ThresholdRow {
        ThresholdRow {
            n: row.n,
            beta_lo: row.beta.lo,
            beta_hi: row.beta.hi,
            p_lo: row.p.lo,
            p_hi: row.p.hi,
            method: row.method.as_str(),
        }
    }
}

impl From<&CertifiedThreshold> for ThresholdRow {
    fn from(row: &CertifiedThreshold) -> ThresholdRow {
        ThresholdRow::from_certified(row)
    }
}

/// A complete certified table for `n = 2..` under `δ = n/3`.
#[derive(Clone, Debug, PartialEq)]
pub struct ThresholdTable {
    rows: Vec<ThresholdRow>,
}

impl ThresholdTable {
    /// Wraps certified rows into a table.
    #[must_use]
    pub fn new(rows: Vec<ThresholdRow>) -> ThresholdTable {
        ThresholdTable { rows }
    }

    /// The certified rows, in increasing `n`.
    #[must_use]
    pub fn rows(&self) -> &[ThresholdRow] {
        &self.rows
    }

    /// Serializes to the `threshold-table/v1` JSON document (one row
    /// per line; shortest-round-trip floats, so emission is
    /// deterministic and re-parsing is bit-exact).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(out, "  \"delta_rule\": \"{DELTA_RULE}\",");
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"n\": {}, \"method\": \"{}\", \"beta_lo\": {}, \"beta_hi\": {}, \"p_lo\": {}, \"p_hi\": {}}}",
                row.n,
                row.method,
                json_f64(row.beta_lo),
                json_f64(row.beta_hi),
                json_f64(row.p_lo),
                json_f64(row.p_hi),
            );
            out.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a `threshold-table/v1` document, the inverse of
    /// [`ThresholdTable::to_json`]: endpoints arrive bit-exactly.
    /// Only the schema is checked here; the certified invariants
    /// (contiguous `n`, tight enclosures) are `cargo xtask
    /// table-check`'s job.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, a wrong schema or capacity
    /// rule, or a row with a missing or mistyped field or an unknown
    /// method.
    pub fn from_json(text: &str) -> Result<ThresholdTable, String> {
        let root = json::parse(text)?;
        let fields = root.fields("table")?;
        let schema = json::field(fields, "schema", "table")?.str("schema")?;
        if schema != SCHEMA {
            return Err(format!(
                "unsupported table schema {schema:?} (expected {SCHEMA:?})"
            ));
        }
        let rule = json::field(fields, "delta_rule", "table")?.str("delta_rule")?;
        if rule != DELTA_RULE {
            return Err(format!(
                "unsupported capacity rule {rule:?} in delta_rule (expected {DELTA_RULE:?})"
            ));
        }
        let rows = json::field(fields, "rows", "table")?.items("rows")?;
        let rows = rows
            .iter()
            .enumerate()
            .map(parse_row)
            .collect::<Result<_, _>>()?;
        Ok(ThresholdTable::new(rows))
    }
}

/// Reads row `i` of a `threshold-table/v1` document.
fn parse_row((i, item): (usize, &Json<'_>)) -> Result<ThresholdRow, String> {
    let what = format!("rows[{i}]");
    let row = item.fields(&what)?;
    let get = |key: &str| json::field(row, key, &what);
    let n = u32::try_from(get("n")?.u64("n")?).map_err(|_| format!("{what}: n out of range"))?;
    let method = match get("method")?.str("method")? {
        "exact" => "exact",
        "ball" => "ball",
        other => return Err(format!("{what}: unknown method {other:?}")),
    };
    Ok(ThresholdRow {
        n,
        beta_lo: get("beta_lo")?.f64("beta_lo")?,
        beta_hi: get("beta_hi")?.f64("beta_hi")?,
        p_lo: get("p_lo")?.f64("p_lo")?,
        p_hi: get("p_hi")?.f64("p_hi")?,
        method,
    })
}

/// JSON number formatting for an `f64`: Rust's shortest round-trip
/// `Display`, with a trailing `.0` forced onto integral values so the
/// token stays a JSON *number with a fraction* and never turns into a
/// context-dependent integer.
// xtask:allow(no-twin-f64): JSON number formatting, not a math pipeline.
fn json_f64(value: f64) -> String {
    let s = format!("{value}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certified::Method;
    use polynomial::Interval;

    fn sample() -> ThresholdTable {
        ThresholdTable::new(vec![
            ThresholdRow {
                n: 2,
                beta_lo: 0.5,
                beta_hi: 0.500_000_000_1,
                p_lo: 0.25,
                p_hi: 0.250_000_000_1,
                method: "exact",
            },
            ThresholdRow {
                n: 3,
                beta_lo: 0.622,
                beta_hi: 0.6221,
                p_lo: 0.544,
                p_hi: 0.545,
                method: "ball",
            },
        ])
    }

    #[test]
    fn json_has_schema_rule_and_rows() {
        let json = sample().to_json();
        assert!(json.contains("\"schema\": \"threshold-table/v1\""));
        assert!(json.contains("\"delta_rule\": \"n/3\""));
        assert!(json.contains("\"n\": 2, \"method\": \"exact\""));
        assert!(json.contains("\"n\": 3, \"method\": \"ball\""));
        assert!(json.ends_with("]\n}\n"));
    }

    #[test]
    fn json_round_trips_bit_exactly() {
        let certified = crate::certified::build_table(4).unwrap();
        assert_eq!(
            ThresholdTable::from_json(&certified.to_json()).unwrap(),
            certified
        );
        let table = sample();
        assert_eq!(ThresholdTable::from_json(&table.to_json()).unwrap(), table);
        assert!(ThresholdTable::from_json("{}").is_err());
        let wrong_schema = table
            .to_json()
            .replace("threshold-table/v1", "threshold-table/v9");
        let err = ThresholdTable::from_json(&wrong_schema).unwrap_err();
        assert!(err.contains("schema"), "{err}");
        let wrong_rule = table.to_json().replace("\"n/3\"", "\"n/2\"");
        let err = ThresholdTable::from_json(&wrong_rule).unwrap_err();
        assert!(err.contains("capacity rule"), "{err}");
        let bad_method = table.to_json().replace("\"ball\"", "\"guessed\"");
        let err = ThresholdTable::from_json(&bad_method).unwrap_err();
        assert!(err.contains("rows[1]: unknown method"), "{err}");
    }

    #[test]
    fn json_is_deterministic() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn integral_floats_stay_json_numbers() {
        assert_eq!(json_f64(1.0), "1.0");
        assert_eq!(json_f64(0.25), "0.25");
        // Shortest round-trip printing keeps full precision.
        let x = 0.622_033_526_990_772_8_f64;
        assert_eq!(json_f64(x).parse::<f64>().unwrap(), x);
    }

    #[test]
    fn row_flattens_certified_result() {
        let certified = CertifiedThreshold {
            n: 7,
            beta: Interval { lo: 0.6, hi: 0.7 },
            p: Interval { lo: 0.4, hi: 0.5 },
            method: Method::Ball,
        };
        let row = ThresholdRow::from(&certified);
        assert_eq!(row.n, 7);
        assert_eq!(row.method, "ball");
        assert_eq!(row.beta_lo, 0.6);
        assert_eq!(row.p_hi, 0.5);
    }
}
