//! The parser never panics: on arbitrary bytes, and on truncations
//! and single-byte mutations of every committed `results/*.json`
//! artifact and of a daemon request line. Every rejection is a
//! byte-offset-tagged message inside the input, and a strict prefix of
//! a document parses only when all it drops is trailing whitespace.

use json::Json;
use proptest::collection;
use proptest::prelude::*;
use proptest::TestCaseError;
use std::sync::OnceLock;

/// A `nocomm-service/v1` request line, as a client sends it.
const WIRE_REQUEST: &str = r#"{"proto":"nocomm-service/v1","id":1,"kind":"pwin","delta":1.0,"rule":{"family":"threshold","params":[0.5,0.5,0.5]}}"#;

/// Nested containers, an escape inside a nested string, and
/// whitespace around the document.
const WRITER_GRAMMAR: &str = " {\"a\": [1, {\"b\": \"x\\ny\"}], \"c\": true, \"d\": null} ";

/// Bytes that make up JSON tokens, so generated soup reaches past the
/// first byte of the grammar.
const ALPHABET: &[u8] = b"{}[]\",: \n0123456789-+.eEtrufalsn\\u/\xc3\xa9";

/// Every committed `results/*.json` artifact plus the two fixed
/// documents above.
fn corpus() -> &'static [String] {
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let mut docs: Vec<String> = std::fs::read_dir(dir)
            .expect("results directory")
            .map(|entry| entry.expect("directory entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
            .map(|path| std::fs::read_to_string(path).expect("artifact is UTF-8"))
            .collect();
        assert!(docs.len() >= 8, "expected the committed artifacts");
        docs.push(WIRE_REQUEST.to_owned());
        docs.push(WRITER_GRAMMAR.to_owned());
        docs
    })
}

/// Parses `bytes` (lossily decoded), checks the shape of any
/// rejection, and reports whether the parse succeeded.
fn parse_bytes(bytes: &[u8]) -> Result<bool, TestCaseError> {
    let text = String::from_utf8_lossy(bytes);
    let parsed = json::parse(&text);
    if let Err(message) = &parsed {
        let offset = message
            .strip_prefix("byte ")
            .and_then(|rest| rest.split(':').next())
            .and_then(|n| n.parse::<usize>().ok());
        prop_assert!(
            offset.is_some_and(|at| at <= text.len()),
            "untagged or out-of-range error {message:?} for {text:?}"
        );
    }
    Ok(parsed.is_ok())
}

#[test]
fn every_corpus_document_parses() {
    for doc in corpus() {
        assert!(json::parse(doc).is_ok(), "{doc}");
    }
    let grammar = json::parse(WRITER_GRAMMAR).unwrap();
    let fields = grammar.fields("root").unwrap();
    assert_eq!(fields.len(), 3);
    assert_eq!(json::field(fields, "c", "root").unwrap(), &Json::Bool(true));
    let a = json::field(fields, "a", "root")
        .unwrap()
        .items("a")
        .unwrap();
    let inner = a[1].fields("a[1]").unwrap();
    assert_eq!(
        json::field(inner, "b", "a[1]").unwrap().str("b").unwrap(),
        "x\ny"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in collection::vec(any::<u8>(), 0..96)) {
        parse_bytes(&bytes)?;
    }

    #[test]
    fn token_soup_never_panics(picks in collection::vec(0..ALPHABET.len(), 0..96)) {
        let bytes: Vec<u8> = picks.iter().map(|&i| ALPHABET[i]).collect();
        parse_bytes(&bytes)?;
    }

    #[test]
    fn truncations_parse_only_when_nothing_but_whitespace_is_lost(
        pick in 0usize..64,
        cut in 0.0..1.0f64,
    ) {
        let doc = &corpus()[pick % corpus().len()];
        let at = (cut * doc.len() as f64) as usize;
        let prefix = &doc.as_bytes()[..at];
        let parsed = parse_bytes(prefix)?;
        let whole = doc.trim_end().len() <= at;
        prop_assert_eq!(parsed, whole, "cut at {} of {}", at, doc.len());
    }

    #[test]
    fn byte_mutations_never_panic(
        pick in 0usize..64,
        at in 0.0..1.0f64,
        byte in any::<u8>(),
        alphabet_byte in 0..ALPHABET.len(),
        from_alphabet in any::<bool>(),
    ) {
        let doc = &corpus()[pick % corpus().len()];
        let mut bytes = doc.clone().into_bytes();
        let i = ((at * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[i] = if from_alphabet { ALPHABET[alphabet_byte] } else { byte };
        parse_bytes(&bytes)?;
    }
}
