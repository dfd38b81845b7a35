//! `nocomm-shard`: worker and coordinator CLI for sharded sweeps.
//!
//! Three modes:
//!
//! * `run` — execute one shard of a sweep as a worker process,
//!   checkpointing after every point and then printing one progress
//!   line to stdout (the mode [`orchestrator::run_sweep_with_metrics`]
//!   spawns; the lines are how the coordinator tells progress from a
//!   hang).
//!   `--fault` injects a deterministic crash, stall, or
//!   corrupt-output fault for chaos testing.
//! * `sweep` — act as the coordinator: split the grid, spawn workers
//!   (this same binary by default), supervise, merge, and print the
//!   merged curve plus the supervision ledger.
//! * `--smoke` — self-contained end-to-end proof: runs the same sweep
//!   single-process, orchestrated fault-free, and orchestrated under a
//!   kill + stall + corrupt chaos plan, asserts all three merge
//!   byte-identically, and writes a `shard-smoke/v1` report for
//!   `cargo xtask shard-check`.

use orchestrator::{
    run_sweep_with_metrics, OrchestratorConfig, ProcChaosPlan, ProcFault, WorkerSpec,
};
use simulator::{
    sweep_threshold_checkpointed, EngineMetrics, ShardSweep, SweepCheckpoint, RNG_STREAM_VERSION,
};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const HOUR: Duration = Duration::from_hours(1);

const USAGE: &str = "\
nocomm-shard: sharded sweep worker and coordinator

USAGE:
  nocomm-shard run --n N --delta D --grid G --trials T --seed S \\
                   --start K --points P --out FILE [--fault F]
      Run one shard as a worker: points K..K+P of the sweep, with a
      checkpoint written atomically after every point. After each
      write it prints and flushes one line, <done>/<P>, to stdout: the
      coordinator counts a worker that prints nothing for --stall-ms
      as hung. --fault injects kill:J (abort after J new points),
      stall:J (hang after J new points), or corrupt (finish, then
      trash the file).

  nocomm-shard sweep --n N --delta D --grid G --trials T --seed S \\
                     --shards W --dir DIR [--worker PATH]
                     [--stall-ms MS] [--deadline-ms MS] [--budget R]
      Coordinate W worker processes over the grid and print the merged
      curve (byte-identical to a single-process sweep) plus the
      supervision ledger.

  nocomm-shard --smoke [--out FILE]
      End-to-end self test: single-process vs fault-free orchestrated
      vs chaos-orchestrated (kill + stall + corrupt), asserting
      bit-identical merges; writes a shard-smoke/v1 report to FILE.
";

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("nocomm-shard: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("run") => worker(&args[1..]),
        Some("sweep") => coordinate(&args[1..]),
        Some("--smoke") => smoke(&args[1..]),
        Some("--help" | "-h") => {
            print!("{USAGE}");
            Ok(())
        }
        _ => Err(format!("expected a mode\n{USAGE}")),
    }
}

/// Collects `--flag value` pairs, rejecting unknown and repeated
/// flags and a flag whose value is missing (or is the next flag).
fn parse_flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut pairs = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown flag {flag}\n{USAGE}"));
        }
        if pairs.iter().any(|(seen, _)| seen == flag) {
            return Err(format!("{flag} is given more than once"));
        }
        let value = it
            .next()
            .filter(|value| !value.starts_with("--"))
            .ok_or_else(|| format!("{flag} needs a value"))?;
        pairs.push((flag.clone(), value.clone()));
    }
    Ok(pairs)
}

fn lookup<'a>(pairs: &'a [(String, String)], flag: &str) -> Option<&'a str> {
    pairs
        .iter()
        .find(|(f, _)| f == flag)
        .map(|(_, v)| v.as_str())
}

fn require<'a>(pairs: &'a [(String, String)], flag: &str) -> Result<&'a str, String> {
    lookup(pairs, flag).ok_or_else(|| format!("missing required flag {flag}"))
}

fn parsed<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("could not parse {flag} value {text:?}"))
}

/// Reads `--delta`, the bin capacity: a positive, finite number.
fn capacity(pairs: &[(String, String)]) -> Result<f64, String> {
    let text = require(pairs, "--delta")?;
    let delta: f64 = parsed(text, "--delta")?;
    if delta.is_finite() && delta > 0.0 {
        Ok(delta)
    } else {
        Err(format!(
            "--delta must be positive and finite, found {text:?}"
        ))
    }
}

/// Worker mode: run one shard, optionally injecting a fault.
fn worker(args: &[String]) -> Result<(), String> {
    let pairs = parse_flags(
        args,
        &[
            "--n", "--delta", "--grid", "--trials", "--seed", "--start", "--points", "--out",
            "--fault",
        ],
    )?;
    let n: usize = parsed(require(&pairs, "--n")?, "--n")?;
    let delta = capacity(&pairs)?;
    let grid: usize = parsed(require(&pairs, "--grid")?, "--grid")?;
    let trials: u64 = parsed(require(&pairs, "--trials")?, "--trials")?;
    let seed: u64 = parsed(require(&pairs, "--seed")?, "--seed")?;
    let start: usize = parsed(require(&pairs, "--start")?, "--start")?;
    let points: usize = parsed(require(&pairs, "--points")?, "--points")?;
    let out = PathBuf::from(require(&pairs, "--out")?);
    let fault = lookup(&pairs, "--fault")
        .map(ProcFault::parse)
        .transpose()?;

    let requested = SweepCheckpoint::shard(n, delta, grid, trials, seed, start, points);
    let mut sweep = ShardSweep::open(requested, &out).map_err(|e| e.to_string())?;
    let mut fresh = 0_usize;
    loop {
        match fault {
            Some(ProcFault::Kill { after }) if fresh >= after => {
                // The moral equivalent of `kill -9`: no unwinding, no
                // cleanup — whatever the last atomic rename left is
                // the crash site the replacement resumes from.
                std::process::abort();
            }
            Some(ProcFault::Stall { after }) if fresh >= after && !sweep.is_complete() => {
                // Hang without touching the file; the coordinator's
                // stall detector must SIGKILL us.
                loop {
                    std::thread::sleep(HOUR);
                }
            }
            _ => {}
        }
        if !sweep.step().map_err(|e| e.to_string())? {
            break;
        }
        fresh += 1;
        report_progress(&sweep);
    }
    if matches!(fault, Some(ProcFault::Corrupt)) {
        // Finish, then hand back garbage with a clean exit status:
        // only output validation can catch this kind of traitor.
        std::fs::write(
            &out,
            b"{\"schema\": \"sweep-checkpoint/v1\", \"n\": garbage",
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Prints the worker's progress line for a point `step` just
/// persisted: `<done>/<points>`. The coordinator reads each line as a
/// sign of life; one that has gone away must not stop the worker,
/// whose checkpoint a restarted coordinator adopts, so write errors
/// are ignored.
fn report_progress(sweep: &ShardSweep) {
    let mut out = std::io::stdout();
    let done = sweep.completed();
    let points = sweep.checkpoint().shard_points;
    let _unheard = writeln!(out, "{done}/{points}").and_then(|()| out.flush());
}

/// Coordinator mode: fan a sweep out over worker processes.
fn coordinate(args: &[String]) -> Result<(), String> {
    let pairs = parse_flags(
        args,
        &[
            "--n",
            "--delta",
            "--grid",
            "--trials",
            "--seed",
            "--shards",
            "--dir",
            "--worker",
            "--stall-ms",
            "--deadline-ms",
            "--budget",
        ],
    )?;
    let n: usize = parsed(require(&pairs, "--n")?, "--n")?;
    let delta = capacity(&pairs)?;
    let grid: usize = parsed(require(&pairs, "--grid")?, "--grid")?;
    let trials: u64 = parsed(require(&pairs, "--trials")?, "--trials")?;
    let seed: u64 = parsed(require(&pairs, "--seed")?, "--seed")?;
    let shards: usize = parsed(require(&pairs, "--shards")?, "--shards")?;
    let dir = PathBuf::from(require(&pairs, "--dir")?);
    let worker = match lookup(&pairs, "--worker") {
        Some(path) => WorkerSpec::new(path),
        None => WorkerSpec::current_exe().map_err(|e| e.to_string())?,
    };

    let mut config = OrchestratorConfig::new(shards, dir, worker);
    if let Some(ms) = lookup(&pairs, "--stall-ms") {
        config.stall_timeout = Duration::from_millis(parsed(ms, "--stall-ms")?);
    }
    if let Some(ms) = lookup(&pairs, "--deadline-ms") {
        config.shard_deadline = Duration::from_millis(parsed(ms, "--deadline-ms")?);
    }
    if let Some(budget) = lookup(&pairs, "--budget") {
        config.respawn_budget = parsed(budget, "--budget")?;
    }

    let request = SweepCheckpoint::new(n, delta, grid, trials, seed);
    let metrics = Arc::new(EngineMetrics::new());
    let merged =
        run_sweep_with_metrics(&request, &config, metrics.clone()).map_err(|e| e.to_string())?;
    for point in merged.points() {
        println!("{:?}\t{:?}", point.x, point.report.estimate);
    }
    let snap = metrics.snapshot();
    println!(
        "# shards issued={} completed={} reissued={} killed={} corrupt={}",
        snap.shard_issued,
        snap.shard_completed,
        snap.shard_reissued,
        snap.shard_killed,
        snap.shard_corrupt
    );
    Ok(())
}

/// The ledger slice of one orchestrated smoke run.
struct Leg {
    bit_identical: bool,
    issued: u64,
    completed: u64,
    reissued: u64,
    killed: u64,
    corrupt: u64,
}

/// Runs one orchestrated sweep into `dir` and compares the merged
/// document against `baseline` byte for byte.
fn smoke_leg(
    request: &SweepCheckpoint,
    dir: &PathBuf,
    chaos: Option<ProcChaosPlan>,
    baseline: &str,
) -> Result<Leg, String> {
    std::fs::remove_dir_all(dir).ok();
    let worker = WorkerSpec::current_exe().map_err(|e| e.to_string())?;
    let mut config = OrchestratorConfig::new(3, dir, worker);
    config.stall_timeout = Duration::from_millis(800);
    config.shard_deadline = Duration::from_secs(10);
    config.backoff_base = Duration::from_millis(20);
    config.chaos = chaos;
    let metrics = Arc::new(EngineMetrics::new());
    let merged =
        run_sweep_with_metrics(request, &config, metrics.clone()).map_err(|e| e.to_string())?;
    std::fs::remove_dir_all(dir).ok();
    let snap = metrics.snapshot();
    Ok(Leg {
        bit_identical: merged.to_json() == baseline,
        issued: snap.shard_issued,
        completed: snap.shard_completed,
        reissued: snap.shard_reissued,
        killed: snap.shard_killed,
        corrupt: snap.shard_corrupt,
    })
}

fn leg_json(leg: &Leg) -> String {
    format!(
        "{{\"bit_identical\": {}, \"issued\": {}, \"completed\": {}, \"reissued\": {}, \"killed\": {}, \"corrupt\": {}}}",
        leg.bit_identical, leg.issued, leg.completed, leg.reissued, leg.killed, leg.corrupt
    )
}

/// Smoke mode: prove crash-surviving orchestration end to end.
fn smoke(args: &[String]) -> Result<(), String> {
    let pairs = parse_flags(args, &["--out"])?;
    let (n, delta, grid, trials, seed, shards) =
        (3_usize, 1.0_f64, 5_usize, 2_000_u64, 11_u64, 3_usize);
    let scratch = std::env::temp_dir().join(format!("nocomm-shard-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;

    // Baseline: one uninterrupted process.
    let single = scratch.join("single.json");
    std::fs::remove_file(&single).ok();
    sweep_threshold_checkpointed(n, delta, grid, trials, seed, &single)
        .map_err(|e| e.to_string())?;
    let baseline = std::fs::read_to_string(&single).map_err(|e| e.to_string())?;

    let request = SweepCheckpoint::new(n, delta, grid, trials, seed);
    let fault_free = smoke_leg(&request, &scratch.join("fault-free"), None, &baseline)?;
    println!(
        "fault-free: bit_identical={} issued={} completed={}",
        fault_free.bit_identical, fault_free.issued, fault_free.completed
    );

    // One fault of each kind, one per shard, all on the first attempt.
    let plan = ProcChaosPlan::new()
        .inject(0, 0, ProcFault::Kill { after: 1 })
        .inject(1, 0, ProcFault::Stall { after: 1 })
        .inject(2, 0, ProcFault::Corrupt);
    let chaotic = smoke_leg(&request, &scratch.join("chaotic"), Some(plan), &baseline)?;
    println!(
        "chaotic:    bit_identical={} issued={} completed={} reissued={} killed={} corrupt={}",
        chaotic.bit_identical,
        chaotic.issued,
        chaotic.completed,
        chaotic.reissued,
        chaotic.killed,
        chaotic.corrupt
    );
    std::fs::remove_dir_all(&scratch).ok();

    let ok = fault_free.bit_identical
        && chaotic.bit_identical
        && fault_free.reissued == 0
        && chaotic.killed >= 1
        && chaotic.corrupt >= 1
        && chaotic.reissued >= 3;
    let report = format!(
        "{{\"schema\": \"shard-smoke/v1\", \"rng_stream_version\": {RNG_STREAM_VERSION}, \
         \"n\": {n}, \"grid\": {grid}, \"shards\": {shards}, \"trials\": {trials}, \
         \"fault_free\": {}, \"chaotic\": {}}}\n",
        leg_json(&fault_free),
        leg_json(&chaotic)
    );
    if let Some(out) = lookup(&pairs, "--out") {
        std::fs::write(out, &report).map_err(|e| e.to_string())?;
        println!("report written to {out}");
    } else {
        print!("{report}");
    }
    if ok {
        println!("smoke OK: all three runs merged byte-identically");
        Ok(())
    } else {
        Err("smoke FAILED: merges diverged or faults were not exercised".to_owned())
    }
}
