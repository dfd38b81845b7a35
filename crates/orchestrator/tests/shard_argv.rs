//! `nocomm-shard` answers every malformed command line with exit
//! status 1 and a `nocomm-shard:` message, never a panic (status 101).
//!
//! Each case mutates a valid `run` or `sweep` command line: a dropped
//! flag or value, a repeated or unknown flag, a non-numeric, negative
//! or out-of-range number, a non-finite capacity, a shard outside its
//! grid, or a bad `--fault`. Sizes are tiny, so even a mutation that
//! were wrongly accepted would finish in milliseconds.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_nocomm-shard");

/// `usize::MAX` / `u64::MAX` on the 64-bit targets the suite runs on.
const MAX: &str = "18446744073709551615";

/// 2^128: too large for any integer flag.
const HUGE: &str = "340282366920938463463374607431768211456";

/// A scratch directory that cleans up after itself.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir()
            .join("nocomm-shard-argv")
            .join(format!("{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// A command line as `(flag, value)` pairs after its mode word.
type Pairs = Vec<(&'static str, String)>;

fn run_pairs(dir: &Path) -> Pairs {
    vec![
        ("--n", "2".to_owned()),
        ("--delta", "1.0".to_owned()),
        ("--grid", "4".to_owned()),
        ("--trials", "10".to_owned()),
        ("--seed", "1".to_owned()),
        ("--start", "1".to_owned()),
        ("--points", "2".to_owned()),
        ("--out", dir.join("shard.json").display().to_string()),
    ]
}

fn sweep_pairs(dir: &Path) -> Pairs {
    vec![
        ("--n", "2".to_owned()),
        ("--delta", "1.0".to_owned()),
        ("--grid", "4".to_owned()),
        ("--trials", "10".to_owned()),
        ("--seed", "1".to_owned()),
        ("--shards", "2".to_owned()),
        ("--dir", dir.join("shards").display().to_string()),
        ("--worker", BIN.to_owned()),
    ]
}

fn argv(mode: &str, pairs: &[(&str, String)]) -> Vec<String> {
    let mut out = vec![mode.to_owned()];
    for (flag, value) in pairs {
        out.push((*flag).to_owned());
        out.push(value.clone());
    }
    out
}

fn with(pairs: &Pairs, flag: &'static str, value: &str) -> Pairs {
    let mut out: Pairs = pairs.iter().filter(|(f, _)| *f != flag).cloned().collect();
    out.push((flag, value.to_owned()));
    out
}

/// Every mutation of `base` (a valid command line for `mode`), where
/// `numeric` names the flags that take numbers and `optional` those a
/// valid line may leave out.
fn mutations(mode: &str, base: &Pairs, numeric: &[&str], optional: &[&str]) -> Vec<Vec<String>> {
    let mut cases = Vec::new();
    for (i, (flag, value)) in base.iter().enumerate() {
        let mut rest = base.clone();
        rest.remove(i);
        if !optional.contains(flag) {
            // The flag dropped with its value.
            cases.push(argv(mode, &rest));
        }
        // The value dropped: the flag swallows the next flag, or ends
        // the line.
        let mut line = argv(mode, &base[..i]);
        line.push((*flag).to_owned());
        line.extend(argv(mode, &base[i + 1..]).into_iter().skip(1));
        cases.push(line);
        let mut last = argv(mode, &rest);
        last.push((*flag).to_owned());
        cases.push(last);
        // The flag repeated, with the same and with another value.
        let mut twice = base.clone();
        twice.push((flag, value.clone()));
        cases.push(argv(mode, &twice));
        if numeric.contains(flag) {
            // Fractions, exponents and huge values are numbers to
            // `--delta`; its own cases follow the loop.
            let bad: &[&str] = if *flag == "--delta" {
                &["x", "", "-3", "0x10"]
            } else {
                &["x", "", "1.5", "-3", "1e3", "0x10", " 2", HUGE]
            };
            for bad in bad {
                cases.push(argv(mode, &with(base, flag, bad)));
            }
        }
    }
    for delta in [
        "NaN", "nan", "inf", "-inf", "infinity", "0", "-0.0", "-1", "1e309",
    ] {
        cases.push(argv(mode, &with(base, "--delta", delta)));
    }
    for (n, grid, trials) in [
        ("0", "4", "10"),
        ("1", "4", "10"),
        ("2", "1", "10"),
        ("2", "0", "10"),
        ("2", "4", "0"),
        ("2", MAX, "10"),
    ] {
        let line = with(
            &with(&with(base, "--n", n), "--grid", grid),
            "--trials",
            trials,
        );
        cases.push(argv(mode, &line));
    }
    let mut unknown = base.clone();
    unknown.push(("--bogus", "1".to_owned()));
    cases.push(argv(mode, &unknown));
    let mut stray = argv(mode, base);
    stray.push("stray".to_owned());
    cases.push(stray);
    let mut single_dash = argv(mode, base);
    single_dash.push("-n".to_owned());
    single_dash.push("2".to_owned());
    cases.push(single_dash);
    cases
}

/// Runs `args` and returns the failure to report, if the outcome is
/// not exit status 1 with a `nocomm-shard:` message.
fn typed_error(args: &[String]) -> Option<String> {
    let out = Command::new(BIN)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("nocomm-shard runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let typed = out.status.code() == Some(1)
        && stderr.starts_with("nocomm-shard: ")
        && !stderr.contains("panicked");
    (!typed).then(|| format!("{args:?} -> {:?}: {stderr}", out.status.code()))
}

/// Files anywhere under `dir`.
fn files_under(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|entry| {
            if entry.path().is_dir() {
                files_under(&entry.path())
            } else {
                1
            }
        })
        .sum()
}

/// Checks every case. A file a case leaves in `dir` is a failure and
/// is removed, so that one wrongly accepted line cannot mask another.
/// (A coordinator may create its `--dir` before a spawn fails.)
fn assert_all_typed(cases: &[Vec<String>], dir: &Path) {
    let mut failures = Vec::new();
    for args in cases {
        failures.extend(typed_error(args));
        let left = files_under(dir);
        if left > 0 {
            failures.push(format!("{args:?} left {left} file(s) behind"));
            std::fs::remove_dir_all(dir).unwrap();
            std::fs::create_dir_all(dir).unwrap();
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} command lines were not typed errors:\n{}",
        failures.len(),
        cases.len(),
        failures.join("\n")
    );
}

#[test]
fn the_unmutated_command_lines_succeed() {
    let scratch = Scratch::new("valid");
    for (mode, pairs) in [
        ("run", run_pairs(&scratch.0)),
        ("sweep", sweep_pairs(&scratch.0)),
    ] {
        let out = Command::new(BIN)
            .args(argv(mode, &pairs))
            .stdin(Stdio::null())
            .output()
            .unwrap();
        assert!(out.status.success(), "{mode}: {out:?}");
    }
    // The worker's stdout contract: one line per persisted point.
    let run = std::fs::read_to_string(scratch.0.join("shard.json")).unwrap();
    assert!(run.contains("\"wins\""), "{run}");
    std::fs::remove_file(scratch.0.join("shard.json")).unwrap();
    let out = Command::new(BIN)
        .args(argv("run", &run_pairs(&scratch.0)))
        .output()
        .unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout), "1/2\n2/2\n");
}

#[test]
fn mutated_run_command_lines_are_typed_errors() {
    let scratch = Scratch::new("run");
    let base = run_pairs(&scratch.0);
    let numeric = [
        "--n", "--delta", "--grid", "--trials", "--seed", "--start", "--points",
    ];
    let mut cases = mutations("run", &base, &numeric, &[]);
    for (start, points) in [
        ("5", "1"),
        ("4", "2"),
        ("0", "0"),
        (MAX, "2"),
        ("1", MAX),
        (MAX, MAX),
    ] {
        cases.push(argv(
            "run",
            &with(&with(&base, "--start", start), "--points", points),
        ));
    }
    for fault in [
        "",
        "kill",
        "kill:",
        "kill:x",
        "kill:-1",
        "kill:1.5",
        "melt:2",
        "corrupt:1",
        "stall",
        "KILL:1",
        MAX,
    ] {
        cases.push(argv("run", &with(&base, "--fault", fault)));
    }
    let mut twice = with(&base, "--fault", "kill:1");
    twice.push(("--fault", "stall:1".to_owned()));
    cases.push(argv("run", &twice));
    assert_all_typed(&cases, &scratch.0);
}

#[test]
fn mutated_sweep_command_lines_are_typed_errors() {
    let scratch = Scratch::new("sweep");
    let base = sweep_pairs(&scratch.0);
    let numeric = ["--n", "--delta", "--grid", "--trials", "--seed", "--shards"];
    let mut cases = mutations("sweep", &base, &numeric, &["--worker"]);
    for shards in ["0", "6", MAX] {
        cases.push(argv("sweep", &with(&base, "--shards", shards)));
    }
    for flag in ["--stall-ms", "--deadline-ms", "--budget"] {
        for bad in ["x", "", "-1", "1.5", HUGE] {
            cases.push(argv("sweep", &with(&base, flag, bad)));
        }
        let mut twice = with(&base, flag, "100");
        twice.push((flag, "100".to_owned()));
        cases.push(argv("sweep", &twice));
    }
    cases.push(argv(
        "sweep",
        &with(&base, "--worker", "/nonexistent/worker"),
    ));
    assert_all_typed(&cases, &scratch.0);
}

#[test]
fn mode_and_smoke_flags_are_typed_errors() {
    let scratch = Scratch::new("modes");
    let cases: Vec<Vec<String>> = [
        &[][..],
        &["walk"],
        &["RUN"],
        &["--smoke", "--out"],
        &["--smoke", "--bogus", "1"],
        &["--smoke", "--out", "a", "--out", "b"],
    ]
    .iter()
    .map(|args| args.iter().map(|s| (*s).to_owned()).collect())
    .collect();
    assert_all_typed(&cases, &scratch.0);
}
