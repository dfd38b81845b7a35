//! `xtask` — the workspace's dependency-free static-analysis and CI
//! driver, invoked as `cargo xtask <command>` (see `.cargo/config.toml`).
//!
//! The checks here encode *repo-specific* rules that `rustc` and
//! `clippy` cannot express — no panicking constructs in library code,
//! no ambient-entropy RNG anywhere, documented panic contracts, named
//! tolerance constants, seed provenance for every RNG, lock/blocking
//! discipline, allocation-free hot paths, and a token-hash gate on
//! the RNG-stream-critical functions — over a lexed token stream and
//! item tree (see [`lexer`] and [`tree`]). Waivers are explicit and
//! reviewed: either an inline `// xtask:allow(<check>): <reason>`
//! comment or an entry in the repo-root `xtask.allow` file; both
//! require a reason, and entries that no longer waive anything are
//! themselves an error (prune with `cargo xtask lint --prune`).
//!
//! | command | effect |
//! |---|---|
//! | `cargo xtask lint` | run the nine lints over the workspace |
//! | `cargo xtask lint --list` | print the lint table |
//! | `cargo xtask lint --prune` | drop stale allowlist entries |
//! | `cargo xtask analyze` | lints + scope-aware analyses + fingerprint gate |
//! | `cargo xtask analyze --list` | print all thirteen checks |
//! | `cargo xtask analyze --json` | machine-readable checks + violations |
//! | `cargo xtask analyze --update-fingerprint` | re-attest `results/stream_fingerprint.json` |
//! | `cargo xtask ci` | fmt-check + analyze + tier-1 tests |
//! | `cargo xtask metrics-check <path>` | validate an `engine-metrics/v1` JSON export |
//! | `cargo xtask chaos-check <path>` | validate a `chaos-smoke/v1` fault-recovery artifact |
//! | `cargo xtask shard-check <path>` | validate a `shard-smoke/v1` orchestration artifact |
//! | `cargo xtask bench-check <fresh> <committed>` | gate fresh bench speedups against `results/BENCH_*.json` |
//! | `cargo xtask table [--max-n N] [--out path]` | certify and write `results/threshold_table.json` |
//! | `cargo xtask table-check [path]` | validate the committed threshold table + spot re-certify rows |

#![forbid(unsafe_code)]

pub mod allow;
pub mod analyses;
pub mod bench_check;
pub mod chaos;
pub mod fingerprint;
pub mod lexer;
pub mod lints;
pub mod metrics;
pub mod shard;
pub mod source;
pub mod table;
pub mod tree;
pub mod walk;

use allow::Allowlist;
use lints::Violation;
use source::{classify, SourceFile};
use std::fmt::Write;
use std::fs;
use std::path::Path;

/// Name of the repo-root allowlist file.
pub const ALLOWLIST_FILE: &str = "xtask.allow";

/// Outcome of a workspace check run: what survived the allowlist, and
/// which allowlist entries waived nothing that the executed checks
/// produced.
pub struct CheckReport {
    /// Violations not covered by any waiver.
    pub violations: Vec<Violation>,
    /// Allowlist entries (within the executed checks' scope) that
    /// covered no violation.
    pub stale: Vec<allow::AllowEntry>,
}

/// Parses every Rust source under `repo_root` into [`SourceFile`]s.
///
/// # Errors
///
/// Returns a message on IO failure.
pub fn parse_workspace(repo_root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut files = Vec::new();
    for (rel, abs) in walk::rust_sources(repo_root)? {
        let text = fs::read_to_string(&abs).map_err(|e| format!("read {rel}: {e}"))?;
        files.push(SourceFile::parse(&rel, classify(Path::new(&rel)), &text));
    }
    Ok(files)
}

/// Lints every Rust source under `repo_root`: the nine lint rules
/// only, staleness judged against lint-id entries only.
///
/// # Errors
///
/// Returns a message on IO failure or a malformed allowlist.
pub fn lint_workspace(repo_root: &Path) -> Result<CheckReport, String> {
    let allowlist = load_allowlist(repo_root)?;
    let mut raw = Vec::new();
    for file in parse_workspace(repo_root)? {
        raw.extend(lints::check_file(&file));
    }
    let scope: Vec<&str> = lints::LINTS.iter().map(|l| l.id).collect();
    let stale = allowlist
        .stale_entries(&raw, &scope)
        .into_iter()
        .cloned()
        .collect();
    Ok(CheckReport {
        violations: allowlist.filter(raw),
        stale,
    })
}

/// Runs the full analyzer: the nine lints, the three scope-aware
/// analyses, and the stream-fingerprint gate; staleness judged
/// against all thirteen check ids.
///
/// # Errors
///
/// Returns a message on IO failure or a malformed allowlist.
pub fn analyze_workspace(repo_root: &Path) -> Result<CheckReport, String> {
    let allowlist = load_allowlist(repo_root)?;
    let files = parse_workspace(repo_root)?;
    let mut raw = Vec::new();
    for file in &files {
        raw.extend(lints::check_file(file));
        raw.extend(analyses::check_file(file));
    }
    let committed = fs::read_to_string(repo_root.join(fingerprint::FINGERPRINT_FILE)).ok();
    raw.extend(fingerprint::check(
        fingerprint::CRITICAL_FNS,
        &files,
        committed.as_deref(),
    ));
    let stale = allowlist
        .stale_entries(&raw, &allow::known_ids())
        .into_iter()
        .cloned()
        .collect();
    Ok(CheckReport {
        violations: allowlist.filter(raw),
        stale,
    })
}

/// Regenerates `results/stream_fingerprint.json` from the current
/// sources, returning its repo-relative path.
///
/// # Errors
///
/// Returns a message on IO failure or when a critical fn is missing
/// (an incomplete attestation must not be written).
pub fn update_fingerprint(repo_root: &Path) -> Result<String, String> {
    let files = parse_workspace(repo_root)?;
    let (fp, violations) = fingerprint::compute(fingerprint::CRITICAL_FNS, &files);
    if !violations.is_empty() {
        return Err(format!(
            "cannot attest an incomplete fingerprint:\n{}",
            render(&violations)
        ));
    }
    let path = repo_root.join(fingerprint::FINGERPRINT_FILE);
    fs::write(&path, fp.render()).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(fingerprint::FINGERPRINT_FILE.to_owned())
}

/// Rewrites `xtask.allow` without its stale entries (matched by check
/// id and path fragment), preserving comments and blank lines.
/// Returns how many entries were dropped.
///
/// # Errors
///
/// Returns a message on IO failure.
pub fn prune_allowlist(repo_root: &Path, stale: &[allow::AllowEntry]) -> Result<usize, String> {
    let path = repo_root.join(ALLOWLIST_FILE);
    let text = fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut kept = String::new();
    let mut dropped = 0usize;
    for raw in text.lines() {
        let line = raw.trim();
        let is_stale = stale.iter().any(|e| {
            let mut parts = line.splitn(3, char::is_whitespace);
            parts.next() == Some(e.lint.as_str()) && parts.next() == Some(e.path_fragment.as_str())
        });
        if is_stale && !line.is_empty() && !line.starts_with('#') {
            dropped += 1;
        } else {
            kept.push_str(raw);
            kept.push('\n');
        }
    }
    fs::write(&path, kept).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(dropped)
}

/// Renders stale allowlist entries as error lines with the prune hint.
#[must_use]
pub fn render_stale(stale: &[allow::AllowEntry]) -> String {
    let mut out = String::new();
    for e in stale {
        let _ = writeln!(
            out,
            "{}: stale waiver: `{} {}` no longer matches any violation \
             (run `cargo xtask lint --prune` to remove)",
            ALLOWLIST_FILE, e.lint, e.path_fragment
        );
    }
    out
}

/// Loads and parses the repo-root allowlist; absent file = empty list.
///
/// # Errors
///
/// Returns a message when the file exists but is malformed.
pub fn load_allowlist(repo_root: &Path) -> Result<Allowlist, String> {
    match fs::read_to_string(repo_root.join(ALLOWLIST_FILE)) {
        Ok(text) => Allowlist::parse(&text),
        Err(_) => Ok(Allowlist::default()),
    }
}

/// Renders violations in `path:line: [lint] message` form, one per
/// line, ready for terminal output.
#[must_use]
pub fn render(violations: &[Violation]) -> String {
    let mut out = String::new();
    for v in violations {
        let _ = writeln!(out, "{}:{}: [{}] {}", v.path, v.line, v.lint, v.message);
    }
    out
}

/// The repo root, derived from this crate's manifest location.
#[must_use]
pub fn repo_root() -> &'static Path {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    root.parent().and_then(Path::parent).unwrap_or(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repo_root_contains_workspace_manifest() {
        assert!(repo_root().join("Cargo.toml").exists());
    }

    #[test]
    fn render_is_one_line_per_violation() {
        let v = vec![Violation {
            lint: "no-panic",
            path: "a.rs".to_owned(),
            line: 3,
            message: "msg".to_owned(),
        }];
        assert_eq!(render(&v), "a.rs:3: [no-panic] msg\n");
    }
}
