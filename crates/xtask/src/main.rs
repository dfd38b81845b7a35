//! CLI entry point: `cargo xtask <command>`.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use xtask::{
    analyses::ANALYSES, analyze_workspace, fingerprint, lint_workspace, lints::LINTS,
    prune_allowlist, render, render_stale, repo_root, update_fingerprint, CheckReport,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    match args.first().map(String::as_str) {
        Some("lint") if flag("--list") => {
            print_checks(false);
            ExitCode::SUCCESS
        }
        Some("lint") => run_lints(flag("--prune")),
        Some("analyze") if flag("--list") => {
            print_checks(true);
            ExitCode::SUCCESS
        }
        Some("analyze") if flag("--update-fingerprint") => match update_fingerprint(repo_root()) {
            Ok(path) => {
                eprintln!("xtask analyze: wrote {path}");
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("xtask analyze: {message}");
                ExitCode::FAILURE
            }
        },
        Some("analyze") => run_analyze(flag("--json")),
        Some("ci") => run_ci(),
        Some("metrics-check") => {
            if let Some(path) = args.get(1) {
                run_metrics_check(path)
            } else {
                eprintln!("usage: cargo xtask metrics-check <path/to/metrics.json>");
                ExitCode::FAILURE
            }
        }
        Some("chaos-check") => {
            if let Some(path) = args.get(1) {
                run_chaos_check(path)
            } else {
                eprintln!("usage: cargo xtask chaos-check <path/to/chaos_smoke.json>");
                ExitCode::FAILURE
            }
        }
        Some("shard-check") => {
            if let Some(path) = args.get(1) {
                run_shard_check(path)
            } else {
                eprintln!("usage: cargo xtask shard-check <path/to/shard_smoke.json>");
                ExitCode::FAILURE
            }
        }
        Some("table") => run_table(&args),
        Some("table-check") => run_table_check(
            args.get(1)
                .filter(|a| !a.starts_with("--"))
                .cloned()
                .unwrap_or_else(default_table_path),
        ),
        Some("bench-check") => {
            if let (Some(fresh), Some(committed)) = (args.get(1), args.get(2)) {
                run_bench_check(fresh, committed)
            } else {
                eprintln!(
                    "usage: cargo xtask bench-check <path/to/fresh.json> <path/to/committed.json>"
                );
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!(
                "usage: cargo xtask <lint [--list|--prune] | analyze [--list|--json|--update-fingerprint] | ci | metrics-check <path> | chaos-check <path> | shard-check <path> | bench-check <fresh> <committed> | table [--max-n N] [--out path] | table-check [path]>"
            );
            ExitCode::FAILURE
        }
    }
}

/// Every check as `(id, summary)` rows: the nine lints and, when
/// `full`, the three analyses plus the fingerprint gate.
fn check_rows(full: bool) -> Vec<(&'static str, &'static str)> {
    let mut rows: Vec<(&'static str, &'static str)> =
        LINTS.iter().map(|l| (l.id, l.summary)).collect();
    if full {
        rows.extend(ANALYSES.iter().map(|a| (a.id, a.summary)));
        rows.push((fingerprint::CHECK_ID, fingerprint::SUMMARY));
    }
    rows
}

/// Prints the check table for `--list`.
fn print_checks(full: bool) {
    for (id, summary) in check_rows(full) {
        println!("{id:<18} {summary}");
    }
}

/// Validates a `chaos-smoke/v1` fault-recovery artifact; nonzero exit
/// on a read failure, a structural problem, a chaotic report that is
/// not bit-equal to the fault-free one, or recovery counters showing
/// the plan never engaged.
fn run_chaos_check(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("xtask chaos-check: read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match xtask::chaos::validate_chaos_document(&text) {
        Ok(summary) => {
            eprintln!("xtask chaos-check: {path}: {summary}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("xtask chaos-check: {path}: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Validates a `shard-smoke/v1` orchestration artifact; nonzero exit
/// on a read failure, a structural problem, a merge that is not
/// byte-identical to the single-process baseline, or a supervision
/// ledger showing the chaos plan never engaged.
fn run_shard_check(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("xtask shard-check: read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match xtask::shard::validate_shard_document(&text) {
        Ok(summary) => {
            eprintln!("xtask shard-check: {path}: {summary}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("xtask shard-check: {path}: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Compares a fresh benchmark JSON against the committed reference;
/// nonzero exit on a read failure, a malformed document, a committed
/// row missing from the fresh measurement, or any fresh speedup below
/// its tolerance floor.
fn run_bench_check(fresh_path: &str, committed_path: &str) -> ExitCode {
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| format!("xtask bench-check: read {path}: {e}"))
    };
    let (fresh, committed) = match (read(fresh_path), read(committed_path)) {
        (Ok(f), Ok(c)) => (f, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match xtask::bench_check::check_bench_documents(&fresh, &committed) {
        Ok(summary) => {
            eprintln!("xtask bench-check: {fresh_path} vs {committed_path}: {summary}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("xtask bench-check: {fresh_path} vs {committed_path}:\n{message}");
            ExitCode::FAILURE
        }
    }
}

/// Default location of the committed certified threshold table.
fn default_table_path() -> String {
    repo_root()
        .join("results")
        .join("threshold_table.json")
        .display()
        .to_string()
}

/// Certifies the optimal-threshold table (`n = 2..=max_n` under
/// `δ = n/3`) and writes `threshold-table/v1` JSON atomically
/// (temp-file + rename, so readers never observe a torn table).
fn run_table(args: &[String]) -> ExitCode {
    let opt = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let Ok(max_n) = opt("--max-n").map_or(Ok(128u32), |raw| raw.parse()) else {
        eprintln!("xtask table: --max-n expects an integer");
        return ExitCode::FAILURE;
    };
    let out = opt("--out").cloned().unwrap_or_else(default_table_path);
    let started = std::time::Instant::now();
    let table = match decision::certified::build_table(max_n) {
        Ok(table) => table,
        Err(e) => {
            eprintln!("xtask table: certification failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let json = table.to_json();
    let out_path = std::path::Path::new(&out);
    let tmp = out_path.with_extension("json.tmp");
    let write = std::fs::write(&tmp, &json).and_then(|()| std::fs::rename(&tmp, out_path));
    if let Err(e) = write {
        eprintln!("xtask table: write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "xtask table: wrote {out}: {} certified rows (n = 2..={max_n}) in {:.1?}",
        table.rows().len(),
        started.elapsed()
    );
    ExitCode::SUCCESS
}

/// Validates the committed threshold table: structural checks over
/// the `threshold-table/v1` document, then semantic spot
/// re-certification (derivative sign tests at the enclosure
/// endpoints) of a handful of rows spread across the table.
fn run_table_check(path: String) -> ExitCode {
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("xtask table-check: read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let table = match xtask::table::validate_table_document(&text) {
        Ok(table) => table,
        Err(message) => {
            eprintln!("xtask table-check: {path}: {message}");
            return ExitCode::FAILURE;
        }
    };
    let rows = table.rows();
    let picks = xtask::table::spot_indices(rows.len(), 5);
    for &idx in &picks {
        let row = &rows[idx];
        let n = row.n;
        if !decision::certified::spot_check(n, row.beta_lo, row.beta_hi) {
            eprintln!(
                "xtask table-check: {path}: row n={n} failed spot re-certification \
                 ([{}, {}] does not bracket the optimum)",
                row.beta_lo, row.beta_hi
            );
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "xtask table-check: {path}: {} rows ok (n = 2..={}), {} spot re-certified",
        rows.len(),
        rows.last().map_or(0, |r| r.n),
        picks.len()
    );
    ExitCode::SUCCESS
}

/// Validates an `engine-metrics/v1` JSON export; nonzero exit on a
/// read failure or any structural problem.
fn run_metrics_check(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("xtask metrics-check: read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match xtask::metrics::validate_metrics_document(&text) {
        Ok(summary) => {
            eprintln!("xtask metrics-check: {path}: {summary}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("xtask metrics-check: {path}: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Reports one check run: violations, then stale waivers (pruning
/// them first if asked). Returns the exit code.
fn report(label: &str, report: &CheckReport, total_checks: usize, prune: bool) -> ExitCode {
    let mut failed = false;
    if !report.violations.is_empty() {
        print!("{}", render(&report.violations));
        failed = true;
    }
    if !report.stale.is_empty() {
        if prune {
            match prune_allowlist(repo_root(), &report.stale) {
                Ok(dropped) => eprintln!("xtask {label}: pruned {dropped} stale waiver(s)"),
                Err(message) => {
                    eprintln!("xtask {label}: {message}");
                    failed = true;
                }
            }
        } else {
            print!("{}", render_stale(&report.stale));
            failed = true;
        }
    }
    if failed {
        eprintln!(
            "xtask {label}: {} violation(s), {} stale waiver(s)",
            report.violations.len(),
            report.stale.len()
        );
        ExitCode::FAILURE
    } else {
        eprintln!("xtask {label}: clean ({total_checks} checks)");
        ExitCode::SUCCESS
    }
}

/// Runs the nine lints; nonzero exit on any violation or stale waiver.
fn run_lints(prune: bool) -> ExitCode {
    match lint_workspace(repo_root()) {
        Ok(outcome) => report("lint", &outcome, LINTS.len(), prune),
        Err(message) => {
            eprintln!("xtask lint: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the full analyzer (lints + analyses + fingerprint gate).
fn run_analyze(json: bool) -> ExitCode {
    match analyze_workspace(repo_root()) {
        Ok(outcome) if json => {
            print!("{}", render_json(&outcome));
            if outcome.violations.is_empty() && outcome.stale.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Ok(outcome) => report("analyze", &outcome, check_rows(true).len(), false),
        Err(message) => {
            eprintln!("xtask analyze: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Renders an `analyze/v1` JSON document for editor/tooling
/// integration: the check table plus every violation and stale
/// waiver.
fn render_json(outcome: &CheckReport) -> String {
    let mut out = String::from("{\n  \"schema\": \"analyze/v1\",\n  \"checks\": [\n");
    let rows = check_rows(true);
    for (idx, (id, summary)) in rows.iter().enumerate() {
        let comma = if idx + 1 == rows.len() { "" } else { "," };
        let _ = write!(out, "    {{\"id\": \"{id}\", \"summary\": ");
        json::write_str(&mut out, summary);
        let _ = writeln!(out, "}}{comma}");
    }
    out.push_str("  ],\n  \"violations\": [\n");
    for (idx, v) in outcome.violations.iter().enumerate() {
        let comma = if idx + 1 == outcome.violations.len() {
            ""
        } else {
            ","
        };
        let _ = write!(out, "    {{\"check\": \"{}\", \"path\": ", v.lint);
        json::write_str(&mut out, &v.path);
        let _ = write!(out, ", \"line\": {}, \"message\": ", v.line);
        json::write_str(&mut out, &v.message);
        let _ = writeln!(out, "}}{comma}");
    }
    out.push_str("  ],\n  \"stale_waivers\": [\n");
    for (idx, e) in outcome.stale.iter().enumerate() {
        let comma = if idx + 1 == outcome.stale.len() {
            ""
        } else {
            ","
        };
        let _ = write!(out, "    {{\"check\": \"{}\", \"path\": ", e.lint);
        json::write_str(&mut out, &e.path_fragment);
        let _ = writeln!(out, "}}{comma}");
    }
    out.push_str("  ]\n}\n");
    out
}

/// The local CI pipeline: fmt-check, the full analyzer, then the
/// tier-1 tests.
fn run_ci() -> ExitCode {
    let steps: &[(&str, &[&str])] = &[
        ("cargo fmt --check", &["fmt", "--check"]),
        ("cargo test -q", &["test", "-q"]),
        ("cargo test -q --workspace", &["test", "-q", "--workspace"]),
    ];
    let (fmt, tests) = steps.split_first().expect("steps are nonempty"); // xtask:allow(no-panic): static slice above
    if !run_cargo(fmt.0, fmt.1) {
        return ExitCode::FAILURE;
    }
    if run_analyze(false) == ExitCode::FAILURE {
        return ExitCode::FAILURE;
    }
    for (label, argv) in tests {
        if !run_cargo(label, argv) {
            return ExitCode::FAILURE;
        }
    }
    eprintln!("xtask ci: all steps passed");
    ExitCode::SUCCESS
}

/// Runs one `cargo` step from the repo root, echoing its label.
fn run_cargo(label: &str, argv: &[&str]) -> bool {
    eprintln!("xtask ci: {label}");
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args(argv)
        .current_dir(repo_root())
        .status();
    match status {
        Ok(s) if s.success() => true,
        Ok(s) => {
            eprintln!("xtask ci: `{label}` failed with {s}");
            false
        }
        Err(e) => {
            eprintln!("xtask ci: could not spawn `{label}`: {e}");
            false
        }
    }
}
