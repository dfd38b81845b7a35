//! `perfbench`: the repository's end-to-end benchmark.
//!
//! Drives an in-process `nocomm-service` daemon and the sharded-sweep
//! orchestrator through one workload, checks every answer against a
//! direct library evaluation, and prints each metric by name and unit.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics, or with `--trace 1` the per-layer ones.
//!
//! ```text
//! perfbench --workload serve_hot|serve_cold|simulate|sweep_sharded
//!           --seed N --seconds S --trace 0|1 [--scratch DIR]
//! ```
//!
//! Run it through `python3 perfbench/run.py` from the repository root,
//! which builds this binary and the `nocomm-shard` worker first.

mod layers;
mod serve;
mod stats;
mod sweep;
mod workload;

use crate::layers::{Inputs, Law, Layer};
use crate::stats::{capacity_mb, touched, Percentile, Sorted};
use crate::sweep::{Swept, SWEPT_RESERVED};
use crate::workload::{Stream, Workload, CLIENTS, ENGINE_THREADS, SHARDS, SIM_TRIALS};
use simulator::{EngineMetrics, RNG_STREAM_VERSION};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// The end-to-end metrics every workload reports, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, in order.
pub const PER_LAYER: [&str; 37] = [
    "query.request_encode_ns",
    "query.request_decode_ns",
    "query.response_encode_ns",
    "query.response_decode_ns",
    "wire.response_bytes",
    "cache.hit_ns",
    "cache.miss_us",
    "cache.hit_ratio",
    "cache.contexts",
    "analytic.pwin_cold_us",
    "analytic.pwin_shared_ctx_us",
    "numeric.optimal_ms",
    "server.transport_residual_p50_us",
    "server.transport_residual_tail_us",
    "engine.ns_per_trial",
    "engine.ns_per_trial_1thread",
    "engine.batches",
    "rng.lane_blocks_per_trial",
    "kernel.threefry_ns_per_trial",
    "kernel.decide_ns_per_trial",
    "pool.utilization",
    "pool.jobs",
    "pool.job_mean_us",
    "pool.expired_jobs",
    "pool.panics",
    "sweep.point_us",
    "checkpoint.write_us",
    "checkpoint.bytes",
    "checkpoint.merge_ms",
    "sweep.single_process_s",
    "orchestrator.spawn_ms",
    "shard.issued",
    "shard.reissued",
    "shard.inproc_max_ms",
    "orchestrator.overhead_frac",
    "orchestrator.speedup_vs_single",
    "trace.qps_ratio",
];

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    scratch: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload serve_hot|serve_cold|simulate|sweep_sharded \
--seed N --seconds S --trace 0|1 [--scratch DIR]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scratch = PathBuf::from(".bench_build/perfbench-scratch");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--scratch" => scratch = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let missing = |what: &str| format!("{what} is required\n{USAGE}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        scratch,
    })
}

/// Refuses a load of more client threads than CPUs.
fn check_clients(clients: usize, nproc: usize) -> Result<(), String> {
    if clients > nproc {
        return Err(format!(
            "refusing to run {clients} client threads on {nproc} cpus"
        ));
    }
    Ok(())
}

/// The peak RSS a phase reports: its `VmHWM` less the record buffers
/// the benchmark wrote in full before the phase, so the figure does not
/// grow with throughput.
fn peak_rss_line(vm_hwm_mb: f64, own_mb: f64, lines: &mut Vec<String>) -> f64 {
    let rss = vm_hwm_mb - own_mb;
    lines.push(format!(
        "  peak_rss_mb = {rss} MB (VmHWM {vm_hwm_mb} MB when the timed phase ended, less the {own_mb} MB of records the benchmark pre-touched before it)"
    ));
    rss
}

/// What one run measured.
struct Report {
    attempted: u64,
    failed: u64,
    /// End-to-end values in [`END_TO_END`] order.
    end_to_end: Vec<f64>,
    /// Human-readable lines printed before the result.
    lines: Vec<String>,
    layers: Vec<Layer>,
    laws: Vec<Law>,
}

/// The tail percentile reported end to end. Every workload's run
/// holds well over a hundred operations, so ten or more lie beyond it;
/// p99 of the served workloads is printed beside it but moves too much
/// from run to run on a shared two-core machine to gate on.
const TAIL_P: f64 = 0.90;

/// The latency figures of a phase, exact over its raw samples. An
/// untraced run fails when p90 has fewer than ten samples beyond it;
/// a traced run, whose result carries no end-to-end figures, only
/// says so.
fn latency(
    args: &Args,
    samples_us: Vec<f64>,
    lines: &mut Vec<String>,
) -> Result<(f64, f64), String> {
    let sorted = Sorted::new(samples_us);
    let p50 = sorted.percentile(0.5).ok_or("no operation completed")?;
    let tail = sorted.percentile(TAIL_P).ok_or("no operation completed")?;
    if !tail.supported() && !args.trace {
        return Err(format!(
            "{} needs {} samples beyond it, the run has {} ({} samples)",
            tail.label(),
            stats::MIN_BEYOND,
            tail.beyond,
            tail.samples
        ));
    }
    let show = |q: &Percentile| {
        let support = if q.supported() {
            ""
        } else {
            ", too few beyond to report"
        };
        format!("n={}, beyond={}{support}", q.samples, q.beyond)
    };
    lines.push(format!(
        "  latency_p50_us = {:.3} us ({})",
        p50.value,
        show(&p50)
    ));
    lines.push(format!(
        "  latency_p90_us = {:.3} us ({})",
        tail.value,
        show(&tail)
    ));
    if let Some(p99) = sorted.percentile(0.99).filter(Percentile::supported) {
        lines.push(format!(
            "  (p99 = {:.3} us, {}; not gated)",
            p99.value,
            show(&p99)
        ));
    }
    Ok((p50.value, tail.value))
}

fn served(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let ready = serve::setup(w, args.seed)?;
    let addr = ready.service.local_addr();
    let mut streams: Vec<Stream> = (0..CLIENTS)
        .map(|c| Stream::new(w, args.seed, c).ok_or("not a served workload"))
        .collect::<Result<_, _>>()?;
    let mut logs: Vec<serve::ClientLog> = (0..CLIENTS).map(|_| serve::ClientLog::new()).collect();
    let own_mb: f64 = logs.iter().map(serve::ClientLog::reserved_mb).sum();
    let total = Duration::from_secs(args.seconds);
    let (untraced, traced) = if args.trace {
        let a = serve::drive(addr, &mut streams, &mut logs, total / 2, false)?;
        let before = ready.service.metrics_frame();
        let b = serve::drive(addr, &mut streams, &mut logs, total / 2, true)?;
        (a, Some((b, before, ready.service.metrics_frame())))
    } else {
        (
            serve::drive(addr, &mut streams, &mut logs, total, false)?,
            None,
        )
    };
    let daemon_engine = ready.service.metrics().engine_snapshot();
    let sent: u64 = logs.iter().map(|l| l.answers.len() as u64).sum();
    let requested_trials = ready.warm_trials
        + if w == Workload::Simulate {
            sent * SIM_TRIALS
        } else {
            0
        };
    let table = ready.table.clone();
    ready.service.shutdown();

    let mut lines = Vec::new();
    lines.push(format!(
        "  setup_s = {} s (median of {} set-ups: table load, daemon start, {} warm-up requests)",
        ready.setup_s,
        serve::SETUP_REPS,
        workload::warmup(w, args.seed).len()
    ));
    let (p50, tail) = latency(args, untraced.latency_us.clone(), &mut lines)?;
    let qps = untraced.qps();
    lines.push(format!(
        "  qps = {qps:.3} 1/s (median of one-second windows {:.0?}; {} requests in {:.3} s, closed loop, {} clients)",
        untraced.window_qps,
        untraced.requests,
        untraced.elapsed_s,
        CLIENTS
    ));
    if w == Workload::Simulate {
        lines.push(format!(
            "  trials_per_s = {:.6e} 1/s ({SIM_TRIALS} trials per request)",
            qps * SIM_TRIALS as f64
        ));
    }
    let rss = peak_rss_line(untraced.vm_hwm_mb, own_mb, &mut lines);
    let verdict = serve::verify(w, args.seed, &logs, &table);
    let transport: u64 = logs.iter().map(|l| l.transport_errors).sum();
    lines.push(format!(
        "check: {} answers compared with a direct evaluation: {} wrong or missing, {} with the wrong cache disposition, {} transport errors, {} client phases that could not connect",
        verdict.verified, verdict.wrong, verdict.wrong_cache, transport, verdict.connect_failures
    ));
    let mut report = Report {
        attempted: verdict.attempted(),
        failed: verdict.failed(),
        end_to_end: vec![ready.setup_s, qps, p50, tail, rss],
        lines,
        layers: Vec::new(),
        laws: Vec::new(),
    };
    if let Some((phase, before, after)) = traced {
        let inputs = Inputs {
            workload: w,
            seed: args.seed,
            table: &table,
            exchanges: layers::exchanges(w, args.seed, &logs),
            frames: Some((before, after)),
            daemon_engine: Some(daemon_engine),
            requested_trials,
            swept: &[],
            ledger: None,
            ledger_sweeps: 0,
            worker: sweep::worker_path()?,
            scratch: args.scratch.clone(),
            trace_ratio: phase.qps() / qps,
        };
        let (layers, laws) = layers::measure(&inputs)?;
        report.layers = layers;
        report.laws = laws;
    }
    Ok(report)
}

fn sweeps(args: &Args) -> Result<Report, String> {
    let ready = sweep::setup(args.seed, &args.scratch)?;
    let sink = Arc::new(EngineMetrics::new());
    let mut swept = touched(SWEPT_RESERVED, Swept::FILL);
    let own_mb = capacity_mb::<Swept>(swept.capacity());
    let total = Duration::from_secs(args.seconds);
    let run = |d, swept: &mut Vec<_>, traced| {
        sweep::drive(args.seed, &ready, &args.scratch, d, &sink, swept, traced)
    };
    let (untraced, traced) = if args.trace {
        let a = run(total / 2, &mut swept, false)?;
        let b = run(total / 2, &mut swept, true)?;
        (a, Some(b))
    } else {
        (run(total, &mut swept, false)?, None)
    };
    let end = traced.as_ref().map_or(swept.len(), |b| b.first);
    let walls_us: Vec<f64> = swept[untraced.first..end]
        .iter()
        .map(|s| s.wall_s * 1e6)
        .collect();
    let count = walls_us.len();
    let mut lines = Vec::new();
    lines.push(format!(
        "  setup_s = {} s (median of {} set-ups: worker start check, one warm-up sweep)",
        ready.setup_s,
        serve::SETUP_REPS
    ));
    let (p50, tail) = latency(args, walls_us, &mut lines)?;
    let qps = count as f64 / untraced.elapsed_s;
    lines.push(format!("  qps = {qps:.4} 1/s ({count} orchestrated sweeps in {:.3} s, one caller, {SHARDS} worker processes each)", untraced.elapsed_s));
    lines.push(format!(
        "  sweep_wall_s = {:.6} s (median per orchestrated sweep)",
        p50 / 1e6
    ));
    let trials = (workload::SWEEP_GRID as u64 + 1) * workload::SWEEP_TRIALS;
    lines.push(format!(
        "  trials_per_s = {:.6e} 1/s ({trials} trials per sweep)",
        qps * trials as f64
    ));
    let rss = peak_rss_line(untraced.vm_hwm_mb, own_mb, &mut lines);
    let wrong = sweep::verify(&swept, &args.scratch);
    lines.push(format!(
        "check: {} merged sweeps compared by a 64-bit hash of their bytes with a single-process checkpointed sweep: {wrong} differ",
        swept.len()
    ));
    let mut report = Report {
        attempted: swept.len() as u64,
        failed: wrong,
        end_to_end: vec![ready.setup_s, qps, p50, tail, rss],
        lines,
        layers: Vec::new(),
        laws: Vec::new(),
    };
    if let Some(b) = traced {
        let traced_swept = &swept[b.first..];
        let table = serve::load_table()?;
        let inputs = Inputs {
            workload: args.workload,
            seed: args.seed,
            table: &table,
            exchanges: Vec::new(),
            frames: None,
            daemon_engine: None,
            requested_trials: 0,
            swept: traced_swept,
            ledger: Some(sink.snapshot()),
            ledger_sweeps: swept.len() as u64,
            worker: ready.worker.clone(),
            scratch: args.scratch.clone(),
            trace_ratio: traced_swept.len() as f64 / b.elapsed_s / qps,
        };
        let (layers, laws) = layers::measure(&inputs)?;
        report.layers = layers;
        report.laws = laws;
    }
    Ok(report)
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn run(args: &Args) -> Result<(Report, bool, String), String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    check_clients(CLIENTS, nproc)?;
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "config: workload={} seed={} seconds={} trace={} nproc={nproc} clients={CLIENTS} engine_threads={ENGINE_THREADS} shards={SHARDS} rng_stream_version={RNG_STREAM_VERSION} profile={profile}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    std::fs::create_dir_all(&args.scratch).map_err(|e| format!("scratch: {e}"))?;
    let report = match args.workload {
        Workload::SweepSharded => sweeps(args),
        _ => served(args),
    };
    let _cleanup = std::fs::remove_dir_all(&args.scratch);
    let report = report?;

    let metrics: Vec<String> = if args.trace {
        let names: Vec<&str> = report.layers.iter().map(|l| l.name).collect();
        if names != PER_LAYER {
            return Err(format!(
                "per-layer metrics out of step with the declared list: {names:?}"
            ));
        }
        report
            .layers
            .iter()
            .map(|l| json_metric(l.name, l.value, l.unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(&report.end_to_end)
            .map(|((name, unit), value)| json_metric(name, *value, unit))
            .collect()
    };
    let values = if args.trace {
        report.layers.iter().map(|l| l.value).collect()
    } else {
        report.end_to_end.clone()
    };
    if let Some(bad) = values.iter().position(|v| !v.is_finite()) {
        return Err(format!("metric {bad} is not a finite number"));
    }
    let laws_hold = report.laws.iter().all(|l| l.holds);
    let correct = report.failed == 0 && laws_hold;
    let json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    Ok((report, correct, json))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((report, correct, json)) => {
            let phase = if args.trace {
                "untraced phase"
            } else {
                "untraced"
            };
            println!("end-to-end ({}, {phase}):", args.workload.name());
            for line in &report.lines {
                println!("{line}");
            }
            let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
            println!(
                "  failed_frac = {failed_frac} ({} failed of {} attempted)",
                report.failed, report.attempted
            );
            if args.trace {
                println!("per-layer (traced run; metric = value unit -> end-to-end metric it moves [inputs]):");
                for l in &report.layers {
                    println!(
                        "  {} = {} {} -> {} [{}]",
                        l.name, l.value, l.unit, l.moves, l.inputs
                    );
                }
                for law in &report.laws {
                    println!(
                        "conservation: {} -> {}",
                        law.what,
                        if law.holds { "holds" } else { "BROKEN" }
                    );
                }
            }
            println!("{json}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_emitted_name_is_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        names.extend(PER_LAYER);
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        assert!(!valid_name("bad name"));
        assert!(!valid_name(""));
        assert!(!valid_name("p99/µs"));
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
        }
    }

    #[test]
    fn names_agree_with_the_benchmark_manifest() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(manifest).unwrap();
        let doc = service::wire::parse(&text).unwrap();
        let fields = doc.fields("manifest").unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            service::wire::field(fields, key, "manifest")
                .unwrap()
                .items(key)
                .unwrap()
                .iter()
                .map(|item| {
                    let f = item.fields(key).unwrap();
                    let get = |k| {
                        service::wire::field_opt(f, k)
                            .map_or(String::new(), |v| v.str(k).unwrap().to_owned())
                    };
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layer_names: Vec<String> = names("per_layer").into_iter().map(|(n, _)| n).collect();
        assert_eq!(layer_names, PER_LAYER);
        // `serve_cold` runs by hand only: see its variant's docs.
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, ["serve_hot", "simulate", "sweep_sharded"]);
        assert!(workloads.iter().all(|w| Workload::parse(w).is_some()));
    }

    #[test]
    fn arguments_parse_and_refuse_garbage() {
        let argv = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let args =
            parse_args(&argv("--workload simulate --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(args.workload, Workload::Simulate);
        assert_eq!((args.seed, args.seconds, args.trace), (3, 10, true));
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload simulate --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload simulate --seed x --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--bogus 1")).is_err());
        assert!(parse_args(&argv(
            "--workload simulate --seed 3 --seconds 10 --trace 0 --clients 4"
        ))
        .is_err());
    }

    #[test]
    fn more_clients_than_cpus_is_refused() {
        let err = check_clients(3, 2).unwrap_err();
        assert!(err.contains("refusing"), "{err}");
        assert!(check_clients(2, 2).is_ok());
    }
}
