//! The RNG stream-fingerprint gate: token-hashes of the
//! stream-critical functions, committed to
//! `results/stream_fingerprint.json`, checked on every `cargo xtask
//! analyze`.
//!
//! The engine's contract is that the RNG stream is a pure function of
//! `(seed, batch)` and of `RNG_STREAM_VERSION`: any change to how
//! draws are produced or consumed must bump the version (see the
//! `engine` module docs). The convention was previously social; this
//! gate makes it mechanical. Each critical function's non-comment
//! token texts are FNV-1a-hashed, so reformatting and comment edits
//! never trip the gate, while any semantic token change does —
//! forcing the author to either revert or bump the version and
//! regenerate with `cargo xtask analyze --update-fingerprint`.

use crate::lints::Violation;
use crate::source::SourceFile;
use std::fmt::Write as _;

/// Repo-relative path of the committed fingerprint.
pub const FINGERPRINT_FILE: &str = "results/stream_fingerprint.json";

/// Check id, as used in waivers and `--list` output.
pub const CHECK_ID: &str = "stream-fingerprint";

/// One-line description for `--list` output.
pub const SUMMARY: &str =
    "RNG-stream-critical fns must not change without an RNG_STREAM_VERSION bump";

/// The file that defines `RNG_STREAM_VERSION`.
const VERSION_FILE: &str = "crates/simulator/src/engine.rs";

/// `(path, qualified fn)` pairs whose token streams determine the RNG
/// stream: the generator cores (the sequential xoshiro generator the
/// seeded samplers outside the engine draw from, and the Threefry
/// counter pipeline), the seed derivation and keying, the lane loop
/// (which computes its counter blocks itself), and the scalar draw
/// replay. Growing this list is cheap; every entry is one more
/// function that cannot drift silently.
pub const CRITICAL_FNS: &[(&str, &str)] = &[
    ("crates/rand/src/lib.rs", "splitmix64"),
    ("crates/rand/src/lib.rs", "StdRng::seed_from_u64"),
    ("crates/rand/src/lib.rs", "StdRng::next_u64"),
    ("crates/rand/src/lib.rs", "unit_f64"),
    ("crates/rand/src/lib.rs", "Range::sample_from"),
    ("crates/rand/src/lib.rs", "below"),
    ("crates/rand/src/lib.rs", "CounterKey::from_seed"),
    ("crates/rand/src/lib.rs", "inject"),
    ("crates/rand/src/lib.rs", "threefry4x64_lanes"),
    ("crates/rand/src/lib.rs", "threefry4x64"),
    ("crates/rand/src/lib.rs", "half_to_unit"),
    ("crates/rand/src/lib.rs", "half_to_lattice"),
    ("crates/simulator/src/engine.rs", "splitmix"),
    ("crates/simulator/src/engine.rs", "lane_key"),
    ("crates/simulator/src/engine.rs", "run_lane_batch"),
    ("crates/simulator/src/kernel.rs", "lane_draw"),
];

/// A computed fingerprint: the stream version plus one token hash per
/// critical function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// The `RNG_STREAM_VERSION` the hashes were taken under.
    pub version: u64,
    /// `(key, hash, line)` per critical fn, sorted by key; the key is
    /// `<path>::<qualified-fn>` and the line is where the fn starts
    /// (kept for violation reporting, not serialized).
    pub entries: Vec<(String, u64, usize)>,
}

/// FNV-1a 64 over the byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Token-hash of one function: its non-comment token texts, NUL
/// separated, over the whole item extent (attributes and signature
/// included — they shape the compiled stream too).
fn token_hash(file: &SourceFile, extent: (usize, usize)) -> u64 {
    let bytes = file
        .code
        .iter()
        .filter(|&&i| i >= extent.0 && i < extent.1)
        .flat_map(|&i| file.tok(i).bytes().chain(std::iter::once(0u8)));
    fnv1a(bytes)
}

/// Reads `RNG_STREAM_VERSION` out of the engine source's tokens.
fn stream_version(files: &[SourceFile]) -> Option<u64> {
    let file = files.iter().find(|f| f.path == VERSION_FILE)?;
    let code = &file.code;
    let pos = code
        .iter()
        .position(|&i| file.tok(i) == "RNG_STREAM_VERSION")?;
    let mut k = pos + 1;
    while k < code.len() && !file.tokens[code[k]].is_punct(b'=') {
        if file.tokens[code[k]].is_punct(b';') {
            return None;
        }
        k += 1;
    }
    code.get(k + 1).and_then(|&i| file.tok(i).parse().ok())
}

/// Computes the current fingerprint over `critical` from parsed
/// sources. Functions or the version marker that cannot be found are
/// reported as violations rather than silently skipped — a renamed
/// critical fn must update the gate, not evade it.
pub fn compute(critical: &[(&str, &str)], files: &[SourceFile]) -> (Fingerprint, Vec<Violation>) {
    let mut entries = Vec::new();
    let mut violations = Vec::new();
    for &(path, qualified) in critical {
        let found = files.iter().find(|f| f.path == path).and_then(|file| {
            file.tree
                .functions()
                .into_iter()
                .find(|f| f.qualified == qualified)
                .map(|f| (token_hash(file, f.item.extent), f.item.line))
        });
        match found {
            Some((hash, line)) => entries.push((format!("{path}::{qualified}"), hash, line)),
            None => violations.push(Violation {
                lint: CHECK_ID,
                path: path.to_owned(),
                line: 1,
                message: format!(
                    "stream-critical fn `{qualified}` not found — if it moved or was \
                     renamed, update fingerprint::CRITICAL_FNS and run \
                     `cargo xtask analyze --update-fingerprint`"
                ),
            }),
        }
    }
    entries.sort();
    let version = stream_version(files).unwrap_or_else(|| {
        violations.push(Violation {
            lint: CHECK_ID,
            path: VERSION_FILE.to_owned(),
            line: 1,
            message: "could not read `RNG_STREAM_VERSION` from the engine source".to_owned(),
        });
        0
    });
    (Fingerprint { version, entries }, violations)
}

impl Fingerprint {
    /// Serializes to the committed `stream-fingerprint/v1` JSON form:
    /// sorted keys, 16-hex-digit hashes, trailing newline — byte
    /// reproducible from the same sources.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"stream-fingerprint/v1\",\n");
        let _ = write!(
            out,
            "  \"rng_stream_version\": {},\n  \"functions\": {{\n",
            self.version
        );
        for (idx, (key, hash, _)) in self.entries.iter().enumerate() {
            let comma = if idx + 1 == self.entries.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(out, "    \"{key}\": \"{hash:016x}\"{comma}");
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parses the committed JSON form.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, a wrong schema tag, or a
    /// non-hex hash value.
    pub fn parse(text: &str) -> Result<Fingerprint, String> {
        let doc = json::parse(text)?;
        let fields = doc.fields("fingerprint document")?;
        let get = |key: &str| json::field(fields, key, "fingerprint document");
        let schema = get("schema")?.str("schema")?;
        if schema != "stream-fingerprint/v1" {
            return Err(format!("unsupported fingerprint schema `{schema}`"));
        }
        let version = get("rng_stream_version")?.u64("rng_stream_version")?;
        let mut entries = Vec::new();
        for (key, value) in get("functions")?.fields("functions")? {
            let hex = value.str(key)?;
            let hash = u64::from_str_radix(hex, 16)
                .map_err(|_| format!("`{key}`: hash `{hex}` is not hex"))?;
            entries.push((key.to_string(), hash, 1));
        }
        entries.sort();
        Ok(Fingerprint { version, entries })
    }
}

/// The gate: compares the current fingerprint of `critical` against
/// the committed document text (`None` when the file is absent).
#[must_use]
pub fn check(
    critical: &[(&str, &str)],
    files: &[SourceFile],
    committed: Option<&str>,
) -> Vec<Violation> {
    let (current, mut violations) = compute(critical, files);
    let committed = match committed.map(Fingerprint::parse) {
        Some(Ok(fp)) => fp,
        Some(Err(err)) => {
            violations.push(Violation {
                lint: CHECK_ID,
                path: FINGERPRINT_FILE.to_owned(),
                line: 1,
                message: format!(
                    "malformed fingerprint: {err} — run `cargo xtask analyze --update-fingerprint`"
                ),
            });
            return violations;
        }
        None => {
            violations.push(Violation {
                lint: CHECK_ID,
                path: FINGERPRINT_FILE.to_owned(),
                line: 1,
                message: "missing committed fingerprint — run \
                          `cargo xtask analyze --update-fingerprint`"
                    .to_owned(),
            });
            return violations;
        }
    };
    if committed.version != current.version {
        // The bump already happened (the deliberate-change path); the
        // only remaining step is regenerating the committed hashes.
        violations.push(Violation {
            lint: CHECK_ID,
            path: FINGERPRINT_FILE.to_owned(),
            line: 1,
            message: format!(
                "fingerprint is for RNG_STREAM_VERSION {} but the engine declares {} — \
                 run `cargo xtask analyze --update-fingerprint` to re-attest",
                committed.version, current.version
            ),
        });
        return violations;
    }
    for (key, hash, line) in &current.entries {
        match committed.entries.iter().find(|(k, _, _)| k == key) {
            Some((_, committed_hash, _)) if committed_hash == hash => {}
            Some(_) => {
                let path = key.split("::").next().unwrap_or(key).to_owned();
                violations.push(Violation {
                    lint: CHECK_ID,
                    path,
                    line: *line,
                    message: format!(
                        "token stream of stream-critical fn `{}` changed without an \
                         RNG_STREAM_VERSION bump — revert, or bump the version \
                         (documenting the stream change) and run \
                         `cargo xtask analyze --update-fingerprint`",
                        key.rsplit("::").next().unwrap_or(key)
                    ),
                });
            }
            None => violations.push(Violation {
                lint: CHECK_ID,
                path: FINGERPRINT_FILE.to_owned(),
                line: 1,
                message: format!(
                    "`{key}` is not in the committed fingerprint — run \
                     `cargo xtask analyze --update-fingerprint`"
                ),
            }),
        }
    }
    for (key, _, _) in &committed.entries {
        if !current.entries.iter().any(|(k, _, _)| k == key) {
            violations.push(Violation {
                lint: CHECK_ID,
                path: FINGERPRINT_FILE.to_owned(),
                line: 1,
                message: format!(
                    "committed fingerprint entry `{key}` no longer corresponds to a \
                     critical fn — run `cargo xtask analyze --update-fingerprint`"
                ),
            });
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FileKind, SourceFile};

    const CRITICAL: &[(&str, &str)] = &[("crates/simulator/src/kernel.rs", "Buf::next_unit")];

    fn kernel_file(body: &str) -> SourceFile {
        let src = format!("impl Buf {{\n    fn next_unit(&mut self) -> f64 {{ {body} }}\n}}\n");
        SourceFile::parse("crates/simulator/src/kernel.rs", FileKind::Lib, &src)
    }

    fn engine_file(version: u64) -> SourceFile {
        let src = format!("pub(crate) const RNG_STREAM_VERSION: u32 = {version};\n");
        SourceFile::parse("crates/simulator/src/engine.rs", FileKind::Lib, &src)
    }

    fn committed(files: &[SourceFile]) -> String {
        let (fp, violations) = compute(CRITICAL, files);
        assert!(violations.is_empty());
        fp.render()
    }

    #[test]
    fn matching_fingerprint_is_clean() {
        let files = vec![kernel_file("self.buffer[0]"), engine_file(2)];
        let doc = committed(&files);
        assert!(check(CRITICAL, &files, Some(doc.as_str())).is_empty());
    }

    #[test]
    fn comment_and_whitespace_edits_do_not_trip_the_gate() {
        let files = vec![kernel_file("self.buffer[0]"), engine_file(2)];
        let doc = committed(&files);
        let reformatted = vec![
            SourceFile::parse(
                "crates/simulator/src/kernel.rs",
                FileKind::Lib,
                "impl Buf {\n    // hot path\n    fn next_unit(&mut self) -> f64 {\n        self.buffer[0]\n    }\n}\n",
            ),
            engine_file(2),
        ];
        assert!(check(CRITICAL, &reformatted, Some(doc.as_str())).is_empty());
    }

    #[test]
    fn token_change_without_bump_fires() {
        let files = vec![kernel_file("self.buffer[0]"), engine_file(2)];
        let doc = committed(&files);
        let mutated = vec![kernel_file("self.buffer[1]"), engine_file(2)];
        let violations = check(CRITICAL, &mutated, Some(doc.as_str()));
        assert_eq!(violations.len(), 1);
        assert!(violations[0]
            .message
            .contains("without an RNG_STREAM_VERSION bump"));
        assert_eq!(violations[0].path, "crates/simulator/src/kernel.rs");
    }

    #[test]
    fn version_bump_demands_reattestation_then_passes() {
        let files = vec![kernel_file("self.buffer[0]"), engine_file(2)];
        let doc = committed(&files);
        let bumped = vec![kernel_file("self.buffer[1]"), engine_file(3)];
        let violations = check(CRITICAL, &bumped, Some(doc.as_str()));
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("--update-fingerprint"));
        // Regenerating under the new version settles the gate.
        let regenerated = committed(&bumped);
        assert!(check(CRITICAL, &bumped, Some(regenerated.as_str())).is_empty());
    }

    #[test]
    fn missing_fingerprint_and_missing_fn_are_reported() {
        let files = vec![kernel_file("self.buffer[0]"), engine_file(2)];
        let absent = check(CRITICAL, &files, None);
        assert_eq!(absent.len(), 1);
        assert!(absent[0].message.contains("missing committed fingerprint"));
        let no_fn = vec![engine_file(2)];
        let (_, violations) = compute(CRITICAL, &no_fn);
        assert!(violations.iter().any(|v| v.message.contains("not found")));
    }

    #[test]
    fn render_parse_round_trip() {
        let files = vec![kernel_file("self.buffer[0]"), engine_file(7)];
        let (fp, _) = compute(CRITICAL, &files);
        let parsed = Fingerprint::parse(&fp.render()).unwrap();
        assert_eq!(parsed.version, 7);
        assert_eq!(parsed.entries.len(), 1);
        assert_eq!(parsed.entries[0].0, fp.entries[0].0);
        assert_eq!(parsed.entries[0].1, fp.entries[0].1);
    }
}
