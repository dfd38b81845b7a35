//! Fault tolerance end to end: run the engine under a seeded
//! [`ChaosPlan`] — worker panics, poisoned batch draws, stragglers,
//! and an injected worker-thread death — and prove the recovered run
//! is **bit-equal** to the fault-free run at the same parameters.
//!
//! The headline property: recovery is invisible in the numbers. Each
//! batch's RNG stream is a pure function of `(seed, batch)`, so a
//! batch lost to a dead worker or a panicking job re-executes
//! identically, and the only trace of the chaos is in the recovery
//! counters.
//!
//! Run with: `cargo run --example chaos_smoke [-- --out PATH]`
//! (default output: `results/chaos_smoke.json`; CI validates the
//! document with `cargo xtask chaos-check`).

use nocomm::decision::SingleThresholdAlgorithm;
use nocomm::rational::Rational;
use nocomm::simulator::{ChaosPlan, EngineMetrics, Simulation, RNG_STREAM_VERSION};
use std::path::PathBuf;
use std::sync::Arc;

fn main() {
    let out = output_path();

    let trials = 60_000u64;
    let batch = 2_000u64;
    let batches = trials / batch;
    let seed = 7u64;
    let delta = 1.0;
    let rule = SingleThresholdAlgorithm::symmetric(3, Rational::ratio(5, 8)).expect("valid β");

    println!("chaos_smoke: {trials} trials, {batches} batches, 4 threads, seed {seed}\n");

    // The control: the same engine configuration with no faults.
    let fault_free = Simulation::new(trials, seed)
        .with_batch_size(batch)
        .with_threads(4)
        .run(&rule, delta);
    println!("  fault-free : {fault_free}");

    // The chaotic run: six seeded faults across the 30 batches (the
    // kinds cycle panic → poisoned refill → straggler) plus one
    // injected worker-thread death for the supervisor to absorb.
    let metrics = Arc::new(EngineMetrics::new());
    let plan = ChaosPlan::from_seed(seed, batches, 6).with_worker_exits(1);
    let chaotic = Simulation::new(trials, seed)
        .with_batch_size(batch)
        .with_threads(4)
        .with_metrics(metrics.clone())
        .with_chaos(plan)
        .run(&rule, delta);
    println!("  chaotic    : {chaotic}");

    assert_eq!(
        fault_free, chaotic,
        "recovery must be bit-identical to the fault-free run"
    );

    let snap = metrics.snapshot();
    println!("\nrecovery ledger:");
    println!("  faults injected    {}", snap.chaos_faults);
    println!("  batches recovered  {}", snap.recovered_batches);
    println!("  workers respawned  {}", snap.pool_respawns);
    assert!(snap.chaos_faults > 0, "the plan must actually inject");
    assert!(
        snap.recovered_batches > 0,
        "at least one batch must take the recovery path"
    );

    let document = format!(
        "{{\n  \"schema\": \"chaos-smoke/v1\",\n  \"rng_stream_version\": {},\n  \
         \"seed\": {},\n  \
         \"fault_free\": {{\"wins\": {}, \"trials\": {}}},\n  \
         \"chaotic\": {{\"wins\": {}, \"trials\": {}}},\n  \
         \"recoveries\": {{\"chaos_faults\": {}, \"recovered_batches\": {}, \
         \"pool_respawns\": {}}}\n}}\n",
        RNG_STREAM_VERSION,
        seed,
        fault_free.wins,
        fault_free.trials,
        chaotic.wins,
        chaotic.trials,
        snap.chaos_faults,
        snap.recovered_batches,
        snap.pool_respawns,
    );
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).expect("create output directory");
    }
    std::fs::write(&out, document).expect("write chaos smoke JSON");
    println!(
        "\nbit-identity under chaos holds ✓\nwritten: {}",
        out.display()
    );
}

/// Output path: `--out PATH` if given, else `results/chaos_smoke.json`.
fn output_path() -> PathBuf {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or_else(|| PathBuf::from("results/chaos_smoke.json"), PathBuf::from)
}
