//! Integration tests for `cargo xtask analyze`: each scope-aware
//! analysis fires on its fixture's bad sites and stays silent on the
//! good ones, the stream-fingerprint gate catches a mutated kernel,
//! stale waivers are detected and prunable, and the real workspace is
//! clean under all thirteen checks.

use std::path::Path;
use xtask::analyses::check_file;
use xtask::fingerprint::{self, Fingerprint};
use xtask::lints::Violation;
use xtask::source::{FileKind, SourceFile};

/// Parses a fixture under the given virtual repo path.
fn fixture(name: &str, virtual_path: &str, kind: FileKind) -> SourceFile {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {}: {e}", path.display()));
    SourceFile::parse(virtual_path, kind, &text)
}

fn lines(violations: &[Violation], check: &str) -> Vec<usize> {
    violations
        .iter()
        .filter(|v| v.lint == check)
        .map(|v| v.line)
        .collect()
}

#[test]
fn determinism_flow_fires_on_laundering_only() {
    let f = fixture(
        "determinism_flow.rs",
        "crates/demo/src/determinism_flow.rs",
        FileKind::Lib,
    );
    let v = check_file(&f);
    // The three laundering sites (tail call, let-chain, let-bound
    // call); every seed-named, literal, const, field, waived, and
    // test-module site stays silent.
    assert_eq!(lines(&v, "determinism-flow"), vec![6, 12, 47], "{v:?}");
}

#[test]
fn lock_discipline_fires_on_held_guards_only() {
    let f = fixture(
        "lock_discipline.rs",
        "crates/demo/src/lock_discipline.rs",
        FileKind::Lib,
    );
    let v = check_file(&f);
    // recv under lock, join under helper guard, send under read guard;
    // scoped/dropped/extracted/io-read/waived sites stay silent.
    assert_eq!(lines(&v, "lock-discipline"), vec![7, 14, 21], "{v:?}");
}

#[test]
fn lock_discipline_covers_socket_calls() {
    let f = fixture(
        "service_io.rs",
        "crates/demo/src/service_io.rs",
        FileKind::Lib,
    );
    let v = check_file(&f);
    // write_all under the registry lock, accept under the list lock,
    // read_line under a read guard; the extracted, scoped, dropped,
    // and waived sites stay silent.
    assert_eq!(lines(&v, "lock-discipline"), vec![30, 36, 44], "{v:?}");
}

#[test]
fn lock_discipline_covers_child_process_calls() {
    let f = fixture(
        "process_io.rs",
        "crates/demo/src/process_io.rs",
        FileKind::Lib,
    );
    let v = check_file(&f);
    // kill under the roster lock, try_wait under the ledger guard,
    // wait_with_output under the log lock; the dropped, extracted,
    // and waived sites stay silent.
    assert_eq!(lines(&v, "lock-discipline"), vec![42, 48, 56], "{v:?}");
}

#[test]
fn hot_path_alloc_fires_inside_hot_fns_only() {
    let f = fixture(
        "hot_path_alloc.rs",
        "crates/demo/src/hot_path_alloc.rs",
        FileKind::Lib,
    );
    let v = check_file(&f);
    // collect in run_lane_batch; clone + vec! in lane_draw; Vec::new
    // in sends_to_zero. Cold construction, cold helpers, the clean
    // sends_to_zero, and the waived probe stay silent.
    assert_eq!(lines(&v, "hot-path-alloc"), vec![6, 11, 12, 19], "{v:?}");
}

#[test]
fn analyses_do_not_fire_on_test_files() {
    for name in [
        "determinism_flow.rs",
        "lock_discipline.rs",
        "hot_path_alloc.rs",
        "service_io.rs",
        "process_io.rs",
    ] {
        let f = fixture(name, "crates/demo/tests/t.rs", FileKind::TestLike);
        assert!(check_file(&f).is_empty(), "{name} fired in a test file");
    }
}

/// The fixture gate's critical set: the two `ChunkedDraws`
/// methods of the miniature kernel.
const CRITICAL: &[(&str, &str)] = &[
    ("crates/demo/src/kernel.rs", "ChunkedDraws::refill"),
    ("crates/demo/src/kernel.rs", "ChunkedDraws::next_unit"),
];

fn engine_stub(version: u64) -> SourceFile {
    SourceFile::parse(
        "crates/simulator/src/engine.rs",
        FileKind::Lib,
        &format!("pub(crate) const RNG_STREAM_VERSION: u32 = {version};\n"),
    )
}

fn kernel_files(name: &str, version: u64) -> Vec<SourceFile> {
    vec![
        fixture(name, "crates/demo/src/kernel.rs", FileKind::Lib),
        engine_stub(version),
    ]
}

#[test]
fn fingerprint_gate_fires_on_a_mutated_kernel_without_a_version_bump() {
    let original = kernel_files("stream_kernel.rs", 2);
    let (fp, errors) = fingerprint::compute(CRITICAL, &original);
    assert!(errors.is_empty(), "{errors:?}");
    let committed = fp.render();
    // The attested sources pass their own gate.
    assert!(fingerprint::check(CRITICAL, &original, Some(&committed)).is_empty());
    // The mutated twin changes one token of next_unit's CHUNK
    // neighborhood (a real stream change) but not the version: the
    // gate must fail, naming the changed fn.
    let mutated = kernel_files("stream_kernel_mutated.rs", 2);
    let violations = fingerprint::check(CRITICAL, &mutated, Some(&committed));
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0]
        .message
        .contains("without an RNG_STREAM_VERSION bump"));
    assert!(violations[0].message.contains("next_unit"));
    // refill's tokens are identical, so only next_unit is reported:
    // comment and whitespace churn in the mutated fixture is invisible.
}

#[test]
fn fingerprint_gate_requires_reattestation_after_a_bump_then_passes() {
    let original = kernel_files("stream_kernel.rs", 2);
    let (fp, _) = fingerprint::compute(CRITICAL, &original);
    let committed = fp.render();
    // Bumping the version flips the failure mode to "re-attest".
    let bumped = kernel_files("stream_kernel_mutated.rs", 3);
    let violations = fingerprint::check(CRITICAL, &bumped, Some(&committed));
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].message.contains("--update-fingerprint"));
    // Re-attesting under the new version settles the gate.
    let (fp2, errors) = fingerprint::compute(CRITICAL, &bumped);
    assert!(errors.is_empty());
    let recommitted = fp2.render();
    assert!(fingerprint::check(CRITICAL, &bumped, Some(&recommitted)).is_empty());
    // And the round trip through the JSON text is lossless.
    let parsed = Fingerprint::parse(&recommitted).unwrap();
    assert_eq!(parsed.version, 3);
    assert_eq!(parsed.entries.len(), 2);
}

#[test]
fn committed_workspace_fingerprint_is_reproducible() {
    // The committed artifact must be exactly what --update-fingerprint
    // would write from the current sources.
    let root = xtask::repo_root();
    let files = xtask::parse_workspace(root).expect("parse workspace");
    let (fp, errors) = fingerprint::compute(fingerprint::CRITICAL_FNS, &files);
    assert!(errors.is_empty(), "{errors:?}");
    let committed = std::fs::read_to_string(root.join(fingerprint::FINGERPRINT_FILE))
        .expect("committed fingerprint");
    assert_eq!(
        fp.render(),
        committed,
        "results/stream_fingerprint.json is out of date: run `cargo xtask analyze --update-fingerprint`"
    );
}

#[test]
fn stale_waivers_are_pruned_in_place() {
    // prune_allowlist only touches the allow file, so it can run
    // against a scratch directory.
    let dir = std::env::temp_dir().join(format!("xtask-prune-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let allow = dir.join(xtask::ALLOWLIST_FILE);
    std::fs::write(
        &allow,
        "# waivers\nno-panic crates/bench/src/ fixture reason\nlock-discipline crates/gone/ obsolete reason\n",
    )
    .expect("write allowlist");
    let stale = vec![xtask::allow::AllowEntry {
        lint: "lock-discipline".to_owned(),
        path_fragment: "crates/gone/".to_owned(),
        reason: "obsolete reason".to_owned(),
    }];
    let dropped = xtask::prune_allowlist(&dir, &stale).expect("prune");
    assert_eq!(dropped, 1);
    let kept = std::fs::read_to_string(&allow).expect("read back");
    assert!(kept.contains("# waivers"), "comments survive pruning");
    assert!(kept.contains("no-panic crates/bench/src/"));
    assert!(!kept.contains("crates/gone/"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn real_workspace_is_clean_under_all_13_checks() {
    let report = xtask::analyze_workspace(xtask::repo_root()).expect("analyze run");
    assert!(
        report.violations.is_empty() && report.stale.is_empty(),
        "workspace has analyzer findings:\n{}{}",
        xtask::render(&report.violations),
        xtask::render_stale(&report.stale)
    );
}
