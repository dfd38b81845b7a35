//! `ThresholdTable::from_json` never panics on a damaged table. Every
//! truncation and single-byte edit of the committed
//! `results/threshold_table.json` either fails with a message or reads
//! back as a table that round-trips through `to_json` unchanged.

use decision::certified::ThresholdTable;
use proptest::prelude::*;
use proptest::TestCaseError;
use std::sync::OnceLock;

/// Bytes that make up the table's tokens, so edits often keep the
/// document well-formed and reach the row reader.
const ALPHABET: &[u8] = b"{}[]\",: \n0123456789-+.eEnrul\\abcdefhimopstxy_";

/// The committed table.
fn committed() -> &'static str {
    static TABLE: OnceLock<String> = OnceLock::new();
    TABLE.get_or_init(|| {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/threshold_table.json"
        );
        std::fs::read_to_string(path).expect("the committed table")
    })
}

/// Reads `bytes` (lossily decoded) as a table and checks the outcome:
/// an error carries a message, and a table survives `to_json` and a
/// second read unchanged. Reports whether the read succeeded.
fn read_back(bytes: &[u8]) -> Result<bool, TestCaseError> {
    let text = String::from_utf8_lossy(bytes);
    match ThresholdTable::from_json(&text) {
        Err(message) => {
            prop_assert!(!message.is_empty(), "empty error for {text:?}");
            Ok(false)
        }
        Ok(table) => {
            let again = ThresholdTable::from_json(&table.to_json());
            prop_assert_eq!(again.as_ref(), Ok(&table), "round trip of {}", text);
            Ok(true)
        }
    }
}

#[test]
fn the_committed_table_reads_back_byte_for_byte() {
    let table = ThresholdTable::from_json(committed()).unwrap();
    assert_eq!(table.rows().len(), 127);
    assert_eq!(table.to_json(), committed());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn truncated_tables_are_errors(cut in 0.0..1.0f64) {
        let doc = committed();
        let at = (cut * doc.len() as f64) as usize;
        let read = read_back(&doc.as_bytes()[..at])?;
        // Only the trailing newline can go without losing the table.
        prop_assert_eq!(read, doc.trim_end().len() <= at, "cut at {} of {}", at, doc.len());
    }

    #[test]
    fn edited_tables_are_errors_or_round_trip(
        at in 0.0..1.0f64,
        edit in 0u32..3,
        byte in any::<u8>(),
        alphabet_byte in 0..ALPHABET.len(),
        from_alphabet in any::<bool>(),
    ) {
        let mut bytes = committed().as_bytes().to_vec();
        let i = ((at * bytes.len() as f64) as usize).min(bytes.len() - 1);
        let byte = if from_alphabet { ALPHABET[alphabet_byte] } else { byte };
        match edit {
            0 => bytes[i] = byte,
            1 => {
                bytes.remove(i);
            }
            _ => bytes.insert(i, byte),
        }
        read_back(&bytes)?;
    }

    #[test]
    fn edited_rows_keep_their_fields_typed(
        row in 0usize..127,
        field in 0usize..6,
        value in 0usize..12,
    ) {
        // Swap one field's value for a wrong-typed or out-of-range one.
        let values = [
            "-1", "4294967296", "1e999", "-1e999", "null", "true", "\"x\"", "[]", "{}",
            "\"exact\"", "0.5", "18446744073709551616",
        ];
        let keys = ["n", "method", "beta_lo", "beta_hi", "p_lo", "p_hi"];
        let doc = committed();
        let line = doc.lines().filter(|l| l.contains("\"n\":")).nth(row).unwrap();
        let key = format!("\"{}\": ", keys[field]);
        let start = line.find(&key).unwrap() + key.len();
        let end = start + line[start..].find([',', '}']).unwrap();
        let edited = format!("{}{}{}", &line[..start], values[value], &line[end..]);
        read_back(doc.replacen(line, &edited, 1).as_bytes())?;
    }
}
