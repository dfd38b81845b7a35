//! Engine observability end to end: attach an `EngineMetrics` sink,
//! run a mixed workload (parallel estimation, crash faults, an
//! instrumented sweep), and export the audited counters
//! as an `engine-metrics/v1` JSON document.
//!
//! The headline property: metrics are *observational*. Every estimate
//! printed below is bit-identical to the same run without a sink, and
//! the RNG draw counts are exact — `trials × players × draws/player` —
//! not sampled.
//!
//! Run with: `cargo run --example engine_metrics [-- --out PATH]`
//! (default output: `results/engine_metrics.json`; CI validates the
//! document with `cargo xtask metrics-check`).

use nocomm::decision::{ObliviousAlgorithm, SingleThresholdAlgorithm};
use nocomm::rational::Rational;
use nocomm::simulator::{sweep_threshold_with_engine, EngineMetrics, Simulation};
use std::path::PathBuf;
use std::sync::Arc;

fn main() {
    let out = output_path();
    let metrics = Arc::new(EngineMetrics::new());

    // One sink observes everything: a 4-thread engine, its worker
    // pool, and a threshold sweep reusing the same counters.
    let trials = 200_000u64;
    let sim = Simulation::new(trials, 42)
        .with_threads(4)
        .with_metrics(metrics.clone());

    let threshold =
        SingleThresholdAlgorithm::symmetric(3, Rational::ratio(622, 1000)).expect("valid β");
    let oblivious = ObliviousAlgorithm::fair(4);

    println!("engine_metrics: {trials} trials/run, 4 threads\n");
    println!("  threshold kernel   : {}", sim.run(&threshold, 1.0));
    println!("  oblivious kernel   : {}", sim.run(&oblivious, 1.0));
    println!(
        "  with crash faults  : {}",
        sim.run_with_crashes(&threshold, 1.0, 0.25)
    );

    let sweep_engine = Simulation::new(20_000, 7).with_metrics(metrics.clone());
    let sweep =
        sweep_threshold_with_engine(&sweep_engine, 3, 1.0, 16).expect("valid sweep parameters");
    println!("  sweep              : {} grid points", sweep.len());

    let snap = metrics.snapshot();
    println!("\naudited totals:");
    for (key, value) in snap.counters() {
        println!("  {key:<26} {value}");
    }
    println!(
        "  pool utilization       {:.1}%  (busy {} ms, idle {} ms)",
        snap.pool_utilization() * 100.0,
        snap.pool_busy_ns / 1_000_000,
        snap.pool_idle_ns / 1_000_000,
    );
    if snap.pool_job_ns.count > 0 {
        println!(
            "  mean pool job          {:.2} ms over {} jobs",
            snap.pool_job_ns.mean() / 1e6,
            snap.pool_job_ns.count
        );
    }

    // The conservation law the metrics must obey, checked live: the
    // three engine runs plus the 17 sweep runs each consume an exactly
    // predictable number of uniforms.
    let expected_draws = trials * 3 * 2   // threshold, crash-free
        + trials * 4 * 2                  // oblivious, crash-free
        + trials * 3 * 3                  // threshold with fault coins
        + 17 * 20_000 * 3 * 2; // sweep grid points
    assert_eq!(snap.rng_draws, expected_draws, "draw conservation");
    println!("\ndraw conservation holds: {expected_draws} uniforms accounted for ✓");

    snap.write_json(&out).expect("write metrics JSON");
    println!("written: {}", out.display());
}

/// Output path: `--out PATH` if given, else `results/engine_metrics.json`.
fn output_path() -> PathBuf {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or_else(
            || PathBuf::from("results/engine_metrics.json"),
            PathBuf::from,
        )
}
