//! Integration tests for the fault-injection and recovery layer:
//!
//! 1. **Bit-identity under chaos** — a run under a seeded [`ChaosPlan`]
//!    (worker panics, poisoned draws, stragglers, worker-thread
//!    deaths) produces a report byte-equal to the fault-free run at the
//!    same parameters, across thread counts. Each batch's RNG stream is
//!    a pure function of `(seed, batch)`, so re-executed work cannot
//!    drift.
//! 2. **Bounded waits** — a straggler outliving the batch deadline is
//!    reclaimed by the coordinator instead of stalling the run.
//! 3. **Crash-model edges** — `run_with_crashes` at `p_crash` 0 and 1.
//! 4. **Chaotic sweeps** — a sweep driven through a chaos-carrying
//!    engine matches the fault-free sweep point for point.

use decision::SingleThresholdAlgorithm;
use proptest::prelude::*;
use rational::Rational;
use simulator::{sweep_threshold_with_engine, ChaosPlan, EngineMetrics, FaultKind, Simulation};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn rule() -> SingleThresholdAlgorithm {
    SingleThresholdAlgorithm::symmetric(3, Rational::ratio(5, 8)).unwrap()
}

#[test]
fn zero_crash_probability_is_bit_identical_to_plain_run() {
    // At p_crash = 0 no fault plane is generated and the input and
    // coin planes are the ones a plain run reads, so the reports
    // must be byte-equal.
    let engine = Simulation::new(40_000, 9);
    assert_eq!(
        engine.run(&rule(), 1.0),
        engine.run_with_crashes(&rule(), 1.0, 0.0)
    );
}

#[test]
fn certain_crashes_win_every_round() {
    // All players crash, both bins stay empty, and an empty bin fits
    // any non-negative capacity.
    let report = Simulation::new(20_000, 4).run_with_crashes(&rule(), 0.25, 1.0);
    assert_eq!(report.wins, report.trials);
    assert_eq!(report.trials, 20_000);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The tentpole invariant: any seeded fault schedule, any thread
    // count — the chaotic report equals the fault-free report
    // bit for bit.
    #[test]
    fn chaotic_runs_are_bit_identical_to_fault_free(
        seed in 0u64..1_000,
        threads in 1usize..=4,
        faults in 1usize..6,
        exits in 0u32..=2,
    ) {
        let trials = 12_000u64;
        let batch = 1_000u64;
        let plain = Simulation::new(trials, seed)
            .with_batch_size(batch)
            .with_threads(threads)
            .run(&rule(), 1.0);
        let plan = ChaosPlan::from_seed(seed, trials / batch, faults).with_worker_exits(exits);
        let chaotic = Simulation::new(trials, seed)
            .with_batch_size(batch)
            .with_threads(threads)
            .with_chaos(plan)
            .run(&rule(), 1.0);
        prop_assert_eq!(plain, chaotic);
    }
}

#[test]
fn recovery_counters_track_injected_faults_exactly() {
    // A panic (in-place retry or coordinator reclaim) and poisoned
    // draws (always an in-place retry) each force exactly one
    // re-execution; a short straggler under the generous default
    // deadline recovers nothing. The batch ledger still credits every
    // batch exactly once.
    let metrics = Arc::new(EngineMetrics::new());
    let plan = ChaosPlan::new(3)
        .inject(0, FaultKind::WorkerPanic)
        .inject(2, FaultKind::PoisonedRefill)
        .inject(4, FaultKind::SlowJob { millis: 1 });
    let chaotic = Simulation::new(10_000, 5)
        .with_batch_size(1_000)
        .with_threads(3)
        .with_metrics(metrics.clone())
        .with_chaos(plan)
        .run(&rule(), 1.0);
    let plain = Simulation::new(10_000, 5)
        .with_batch_size(1_000)
        .with_threads(3)
        .run(&rule(), 1.0);
    assert_eq!(chaotic, plain);
    let snap = metrics.snapshot();
    assert_eq!(snap.chaos_faults, 3, "every planned fault armed once");
    assert_eq!(
        snap.recovered_batches, 2,
        "panic + poison, not the straggler"
    );
    assert_eq!(snap.pool_batches, 10, "first completions only, all batches");
}

#[test]
fn injected_worker_deaths_are_respawned_and_absorbed() {
    let metrics = Arc::new(EngineMetrics::new());
    let plan = ChaosPlan::new(8).with_worker_exits(2);
    let chaotic = Simulation::new(12_000, 6)
        .with_batch_size(1_000)
        .with_threads(4)
        .with_metrics(metrics.clone())
        .with_chaos(plan)
        .run(&rule(), 1.0);
    let plain = Simulation::new(12_000, 6)
        .with_batch_size(1_000)
        .with_threads(4)
        .run(&rule(), 1.0);
    assert_eq!(chaotic, plain);
    assert!(
        metrics.snapshot().pool_respawns >= 1,
        "the supervisor must have replaced at least one killed worker"
    );
}

#[test]
fn straggler_past_the_deadline_is_reclaimed_not_awaited() {
    // One batch stalls for far longer than the run deadline. Whoever
    // claims it, the run must neither block on it nor corrupt the
    // report: the collection wait is bounded by the deadline and the
    // reclaimed batch re-executes bit-identically.
    let plan = ChaosPlan::new(1).inject(1, FaultKind::SlowJob { millis: 400 });
    let started = Instant::now();
    let chaotic = Simulation::new(8_000, 3)
        .with_batch_size(1_000)
        .with_threads(4)
        .with_batch_deadline(Duration::from_millis(40))
        .with_chaos(plan)
        .run(&rule(), 1.0);
    let elapsed = started.elapsed();
    let plain = Simulation::new(8_000, 3)
        .with_batch_size(1_000)
        .with_threads(4)
        .run(&rule(), 1.0);
    assert_eq!(chaotic, plain);
    assert!(
        elapsed < Duration::from_secs(20),
        "a 400 ms straggler must not stall a 40 ms-deadline run for {elapsed:?}"
    );
}

#[test]
fn zero_deadline_still_yields_the_correct_report() {
    // The degenerate deadline: every pooled wait expires immediately,
    // so the coordinator reclaims everything — slower, never wrong.
    let chaotic = Simulation::new(6_000, 2)
        .with_batch_size(1_000)
        .with_threads(3)
        .with_batch_deadline(Duration::ZERO)
        .run(&rule(), 1.0);
    let plain = Simulation::new(6_000, 2)
        .with_batch_size(1_000)
        .with_threads(3)
        .run(&rule(), 1.0);
    assert_eq!(chaotic, plain);
}

#[test]
fn chaotic_sweep_is_bit_identical_to_fault_free_sweep() {
    let fault_free = Simulation::new(6_000, 11)
        .with_batch_size(1_000)
        .with_threads(3);
    let plain = sweep_threshold_with_engine(&fault_free, 3, 1.0, 4).unwrap();
    let plan = ChaosPlan::from_seed(11, 6, 3).with_worker_exits(1);
    let chaotic_engine = Simulation::new(6_000, 11)
        .with_batch_size(1_000)
        .with_threads(3)
        .with_chaos(plan);
    let chaotic = sweep_threshold_with_engine(&chaotic_engine, 3, 1.0, 4).unwrap();
    assert_eq!(plain, chaotic);
}
