//! A dependency-free Rust lexer: the token-level foundation of the
//! `cargo xtask analyze` passes.
//!
//! Every token records its byte range and 1-based line in the
//! *original* source, so passes report exact locations and the stream
//! round-trips: concatenating token texts with the whitespace between
//! them reproduces the input byte for byte (property-tested).
//!
//! Comments — including doc comments — are tokens too, so passes that
//! need prose (inline `xtask:allow` waivers, `# Panics` sections) read
//! it from the same stream the code-level passes filter out. String
//! and char literal *contents* are opaque: a `panic!(` inside a string
//! is one `Str` token, invisible to any pass matching identifiers.

/// Doc-comment flavour of a comment token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Doc {
    /// A plain comment (`//`, `/* */`).
    None,
    /// An outer doc comment (`///`, `/** */`) — attaches to the next
    /// item.
    Outer,
    /// An inner doc comment (`//!`, `/*! */`) — documents the
    /// enclosing module or crate.
    Inner,
}

/// What a token is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `seed`, `r#async`).
    Ident,
    /// A lifetime (`'a`, `'static`).
    Lifetime,
    /// An integer literal (`42`, `0xff`, `1_000u64`).
    Int,
    /// A float literal (`1.5`, `1e-9`, `2.5f64`).
    Float,
    /// A string or byte-string literal (`"…"`, `b"…"`).
    Str,
    /// A raw string or raw byte-string literal (`r"…"`, `br#"…"#`).
    RawStr,
    /// A char or byte literal (`'x'`, `b'\n'`).
    Char,
    /// A `//`-style comment, with its doc flavour.
    LineComment(Doc),
    /// A `/* */`-style comment (possibly nested), with its doc
    /// flavour.
    BlockComment(Doc),
    /// A single punctuation byte (`{`, `.`, `!`, …).
    Punct(u8),
    /// A byte the lexer does not classify (kept so the stream still
    /// round-trips).
    Unknown,
}

/// One token: a classified byte range of the source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token {
    /// What the range is.
    pub kind: TokenKind,
    /// Byte offset of the token's first byte.
    pub start: usize,
    /// Byte offset one past the token's last byte.
    pub end: usize,
    /// 1-based line of the token's first byte.
    pub line: usize,
}

impl Token {
    /// The token's text in `source` (the string it was lexed from).
    #[must_use]
    pub fn text<'a>(&self, source: &'a str) -> &'a str {
        &source[self.start..self.end]
    }

    /// `true` for comment tokens of any flavour.
    #[must_use]
    pub fn is_comment(&self) -> bool {
        matches!(
            self.kind,
            TokenKind::LineComment(_) | TokenKind::BlockComment(_)
        )
    }

    /// `true` when the token is exactly the punctuation byte `b`.
    #[must_use]
    pub fn is_punct(&self, b: u8) -> bool {
        self.kind == TokenKind::Punct(b)
    }
}

/// Lexes `source` into a complete token stream.
///
/// Invariants (property-tested in `tests/lexer_proptests.rs`):
/// tokens are in order, non-overlapping, and within bounds; the gaps
/// between consecutive tokens contain only whitespace; every token's
/// `line` equals `1 +` the number of `\n` bytes before `start`.
#[must_use]
#[allow(clippy::too_many_lines)] // one match arm per lexical class; splitting hurts readability
pub fn lex(source: &str) -> Vec<Token> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    while i < bytes.len() {
        let b = bytes[i];
        // Whitespace: skipped, but line-counted.
        if b.is_ascii_whitespace() {
            if b == b'\n' {
                line += 1;
            }
            i += 1;
            continue;
        }
        let start = i;
        let start_line = line;
        let next = bytes.get(i + 1).copied();
        let kind = match b {
            b'/' if next == Some(b'/') => {
                let doc = match bytes.get(i + 2) {
                    Some(b'/') if bytes.get(i + 3) != Some(&b'/') => Doc::Outer,
                    Some(b'!') => Doc::Inner,
                    _ => Doc::None,
                };
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                TokenKind::LineComment(doc)
            }
            b'/' if next == Some(b'*') => {
                let doc = match bytes.get(i + 2) {
                    Some(b'*')
                        if bytes.get(i + 3) != Some(&b'*') && bytes.get(i + 3) != Some(&b'/') =>
                    {
                        Doc::Outer
                    }
                    Some(b'!') => Doc::Inner,
                    _ => Doc::None,
                };
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if bytes[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                TokenKind::BlockComment(doc)
            }
            b'"' => {
                i = scan_string(bytes, i + 1, &mut line);
                TokenKind::Str
            }
            b'b' | b'r' if string_prefix_len(bytes, i).is_some() => {
                // b"…", r"…", r#"…"#, br#"…"#, b'…'
                let (prefix, raw, is_char) =
                    string_prefix_len(bytes, i).unwrap_or((1, false, false)); // xtask:allow(no-panic): guarded by the match arm condition
                i += prefix;
                if is_char {
                    i = scan_char(bytes, i).unwrap_or(i);
                    TokenKind::Char
                } else if raw {
                    #[allow(clippy::naive_bytecount)] // prefix is at most a few bytes long
                    let hashes = bytes[start..i - 1].iter().filter(|&&h| h == b'#').count();
                    i = scan_raw_string(bytes, i, hashes, &mut line);
                    TokenKind::RawStr
                } else {
                    i = scan_string(bytes, i, &mut line);
                    TokenKind::Str
                }
            }
            b'\'' => {
                // Char literal or lifetime: a lifetime has no closing
                // quote straight after its identifier.
                if let Some(end) = scan_char(bytes, i + 1) {
                    i = end;
                    TokenKind::Char
                } else {
                    i += 1;
                    while i < bytes.len() && is_ident_byte(bytes[i]) {
                        i += 1;
                    }
                    TokenKind::Lifetime
                }
            }
            _ if b.is_ascii_digit() => {
                let (end, float) = scan_number(bytes, i);
                i = end;
                if float {
                    TokenKind::Float
                } else {
                    TokenKind::Int
                }
            }
            _ if is_ident_start(b) => {
                // `r#ident` raw identifiers are caught here only when
                // the `r#` did not start a raw string (checked above).
                i += 1;
                if b == b'r'
                    && bytes.get(i) == Some(&b'#')
                    && bytes.get(i + 1).copied().is_some_and(is_ident_byte)
                {
                    i += 1;
                }
                while i < bytes.len() && is_ident_byte(bytes[i]) {
                    i += 1;
                }
                TokenKind::Ident
            }
            _ if b.is_ascii_punctuation() => {
                i += 1;
                TokenKind::Punct(b)
            }
            _ => {
                // Multibyte (non-ASCII) or control byte outside any
                // literal: advance one UTF-8 scalar so the stream
                // still covers every byte.
                i += utf8_len(b);
                TokenKind::Unknown
            }
        };
        tokens.push(Token {
            kind,
            start,
            end: i,
            line: start_line,
        });
    }
    tokens
}

/// Recognizes a string/char prefix starting at `i`: returns
/// `(prefix_len_to_opening_quote, is_raw, is_char)`; `None` when the
/// bytes at `i` do not start a prefixed literal.
fn string_prefix_len(bytes: &[u8], i: usize) -> Option<(usize, bool, bool)> {
    // A prefix is only a prefix when not glued to a preceding
    // identifier (e.g. the `r` of `for` or the `b` of `grab`).
    if i > 0 && is_ident_byte(bytes[i - 1]) {
        return None;
    }
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
        if bytes.get(j) == Some(&b'\'') {
            return Some((j + 1 - i, false, true)); // b'…'
        }
        if bytes.get(j) == Some(&b'"') {
            return Some((j + 1 - i, false, false)); // b"…"
        }
    }
    if bytes.get(j) == Some(&b'r') {
        j += 1;
        let mut hashes = 0usize;
        while bytes.get(j) == Some(&b'#') {
            hashes += 1;
            j += 1;
        }
        if bytes.get(j) == Some(&b'"') {
            return Some((j + 1 - i, true, false)); // [b]r#*"…"#*
        }
        let _ = hashes;
    }
    None
}

/// Scans past an ordinary (escaped) string body whose opening quote
/// is just before `i`; returns the index one past the closing quote.
fn scan_string(bytes: &[u8], mut i: usize, line: &mut usize) -> usize {
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i.min(bytes.len())
}

/// Scans past a raw-string body expecting `hashes` closing `#`s;
/// returns the index one past the final `#` (or `"` when zero).
fn scan_raw_string(bytes: &[u8], mut i: usize, hashes: usize, line: &mut usize) -> usize {
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let mut k = 0usize;
            while k < hashes && bytes.get(i + 1 + k) == Some(&b'#') {
                k += 1;
            }
            if k == hashes {
                return i + 1 + hashes;
            }
        }
        if bytes[i] == b'\n' {
            *line += 1;
        }
        i += 1;
    }
    i
}

/// If a char-literal body starts at `i` (just past the opening `'`),
/// returns the index one past the closing quote; `None` when the
/// quote actually started a lifetime.
fn scan_char(bytes: &[u8], i: usize) -> Option<usize> {
    if bytes.get(i) == Some(&b'\\') {
        // Escaped char: skip the backslash and escape head, then scan
        // to the closing quote (covers `\u{…}` forms).
        let mut j = i + 2;
        while j < bytes.len() && bytes[j] != b'\'' && bytes[j] != b'\n' {
            j += 1;
        }
        return (bytes.get(j) == Some(&b'\'')).then(|| j + 1);
    }
    // Unescaped: exactly one char (up to 4 UTF-8 bytes) then a quote.
    let j = i + utf8_len(*bytes.get(i)?);
    (bytes.get(j) == Some(&b'\'') && bytes.get(i) != Some(&b'\'')).then(|| j + 1)
}

/// Scans a numeric literal starting at `i`; returns `(end, is_float)`.
fn scan_number(bytes: &[u8], mut i: usize) -> (usize, bool) {
    let mut float = false;
    if bytes[i] == b'0' && matches!(bytes.get(i + 1), Some(b'x' | b'o' | b'b')) {
        i += 2;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        return (i, false);
    }
    while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
        i += 1;
    }
    // A fractional part — but not `1..2` (range) or `1.method()`.
    if bytes.get(i) == Some(&b'.')
        && bytes
            .get(i + 1)
            .copied()
            .is_some_and(|d| d.is_ascii_digit())
    {
        float = true;
        i += 1;
        while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
            i += 1;
        }
    }
    // An exponent (`e9`, `E-4`, `e+2`) makes it a float.
    if matches!(bytes.get(i), Some(b'e' | b'E')) {
        let mut j = i + 1;
        if matches!(bytes.get(j), Some(b'+' | b'-')) {
            j += 1;
        }
        if bytes.get(j).copied().is_some_and(|d| d.is_ascii_digit()) {
            float = true;
            i = j;
            while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
                i += 1;
            }
        }
    }
    // A type suffix (`u64`, `f64`) glues onto the literal.
    if bytes.get(i).copied().is_some_and(is_ident_start) {
        if bytes[i] == b'f' {
            float = true;
        }
        while i < bytes.len() && is_ident_byte(bytes[i]) {
            i += 1;
        }
    }
    (i, float)
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Length in bytes of the UTF-8 scalar starting with `b` (1 for
/// continuation/invalid bytes, so progress is always made).
fn utf8_len(b: u8) -> usize {
    match b {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF7 => 4,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).iter().map(|t| t.kind).collect()
    }

    fn texts(src: &str) -> Vec<String> {
        lex(src).iter().map(|t| t.text(src).to_owned()).collect()
    }

    #[test]
    fn idents_puncts_and_numbers() {
        assert_eq!(
            kinds("fn f(x: u64) -> f64 { x as f64 * 1.5e-9 }"),
            vec![
                TokenKind::Ident,
                TokenKind::Ident,
                TokenKind::Punct(b'('),
                TokenKind::Ident,
                TokenKind::Punct(b':'),
                TokenKind::Ident,
                TokenKind::Punct(b')'),
                TokenKind::Punct(b'-'),
                TokenKind::Punct(b'>'),
                TokenKind::Ident,
                TokenKind::Punct(b'{'),
                TokenKind::Ident,
                TokenKind::Ident,
                TokenKind::Ident,
                TokenKind::Punct(b'*'),
                TokenKind::Float,
                TokenKind::Punct(b'}'),
            ]
        );
    }

    #[test]
    fn panic_inside_string_is_one_opaque_token() {
        let src = "let m = \"do not panic!(now)\";";
        let toks = lex(src);
        assert!(toks
            .iter()
            .all(|t| t.kind != TokenKind::Ident || t.text(src) != "panic"));
        assert_eq!(toks.iter().filter(|t| t.kind == TokenKind::Str).count(), 1);
    }

    #[test]
    fn raw_and_byte_strings_are_opaque() {
        for src in [
            "let m = r#\"unwrap() here\"#;",
            "let m = r\"unwrap()\";",
            "let m = b\"unwrap()\";",
            "let m = br#\"unwrap() too\"#;",
        ] {
            let toks = lex(src);
            assert!(
                toks.iter()
                    .all(|t| t.kind != TokenKind::Ident || t.text(src) != "unwrap"),
                "{src}"
            );
        }
    }

    #[test]
    fn raw_string_with_inner_hash_quote_ends_at_matching_hashes() {
        let src = "let m = r##\"contains \"# inside\"##; next()";
        let toks = lex(src);
        assert!(toks.iter().any(|t| t.kind == TokenKind::RawStr));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text(src) == "next"));
    }

    #[test]
    fn lifetimes_and_char_literals_disambiguate() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let toks = lex(src);
        assert_eq!(
            toks.iter()
                .filter(|t| t.kind == TokenKind::Lifetime)
                .count(),
            2
        );
        assert_eq!(toks.iter().filter(|t| t.kind == TokenKind::Char).count(), 1);
    }

    #[test]
    fn wide_char_literals_are_chars_not_lifetimes() {
        // A 4-byte scalar between quotes is still a char literal.
        let src = "let c = '\u{1F600}'; let l: &'static str = \"\";";
        let toks = lex(src);
        assert_eq!(toks.iter().filter(|t| t.kind == TokenKind::Char).count(), 1);
        assert_eq!(
            toks.iter()
                .filter(|t| t.kind == TokenKind::Lifetime)
                .count(),
            1
        );
    }

    #[test]
    fn byte_char_literals_lex_as_chars() {
        let src = "let b = b'\\n'; let q = b'x';";
        assert_eq!(
            lex(src)
                .iter()
                .filter(|t| t.kind == TokenKind::Char)
                .count(),
            2
        );
    }

    #[test]
    fn nested_block_comments_are_one_token() {
        let src = "/* outer /* inner */ still */ let y = 2;";
        let toks = lex(src);
        assert_eq!(
            toks.iter()
                .filter(|t| matches!(t.kind, TokenKind::BlockComment(_)))
                .count(),
            1
        );
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text(src) == "let"));
    }

    #[test]
    fn doc_comment_flavours() {
        let src = "/// outer\n//! inner\n// plain\n//// not doc\n";
        let toks = lex(src);
        assert_eq!(
            toks.iter().map(|t| t.kind).collect::<Vec<_>>(),
            vec![
                TokenKind::LineComment(Doc::Outer),
                TokenKind::LineComment(Doc::Inner),
                TokenKind::LineComment(Doc::None),
                TokenKind::LineComment(Doc::None),
            ]
        );
    }

    #[test]
    fn lines_are_tracked_across_multiline_tokens() {
        let src = "a\n/* b\nc */\nd \"e\nf\"\ng";
        let toks = lex(src);
        let g = toks.last().unwrap();
        assert_eq!(g.text(src), "g");
        assert_eq!(g.line, 6);
    }

    #[test]
    fn for_keyword_r_is_not_a_raw_string() {
        let src = "for x in 0..n { r#\"raw\"#; }";
        let toks = lex(src);
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text(src) == "for"));
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokenKind::RawStr).count(),
            1
        );
    }

    #[test]
    fn raw_identifiers_lex_as_one_ident() {
        let src = "let r#async = 1;";
        assert!(texts(src).contains(&"r#async".to_owned()));
    }

    #[test]
    fn number_shapes() {
        assert_eq!(kinds("0xff_u64"), vec![TokenKind::Int]);
        assert_eq!(kinds("1_000"), vec![TokenKind::Int]);
        assert_eq!(kinds("1e-9"), vec![TokenKind::Float]);
        assert_eq!(kinds("5.0E-4"), vec![TokenKind::Float]);
        assert_eq!(kinds("2f64"), vec![TokenKind::Float]);
        // `1..2` is Int, Punct('.'), Punct('.'), Int — not a float.
        assert_eq!(
            kinds("1..2"),
            vec![
                TokenKind::Int,
                TokenKind::Punct(b'.'),
                TokenKind::Punct(b'.'),
                TokenKind::Int
            ]
        );
    }

    #[test]
    fn stream_round_trips_with_whitespace_gaps() {
        let src = "fn f() {\n    let s = \"x\\\"y\";\n    // note\n    s.len()\n}\n";
        let toks = lex(src);
        let mut cursor = 0usize;
        for t in &toks {
            assert!(src[cursor..t.start]
                .bytes()
                .all(|b| b.is_ascii_whitespace()));
            assert_eq!(t.line, 1 + src[..t.start].matches('\n').count());
            cursor = t.end;
        }
        assert!(src[cursor..].bytes().all(|b| b.is_ascii_whitespace()));
    }
}
