//! Concurrent runs on one shared engine.
//!
//! A server answers Monte-Carlo queries by retargeting one engine per
//! request, so several runs share its worker pool and compute budget
//! at once. Whichever runs overlap, each one gets between zero and
//! `threads − 1` helpers — pool jobs for hinted rules, scoped threads
//! for opaque ones — and a run that starts while the budget is busy
//! executes inline. None of that may move a report: every concurrent
//! run must be bit-identical to the same run on one thread.

use decision::rules::{BinZeroSet, GeneralRule};
use decision::{LocalRule, ObliviousAlgorithm, SingleThresholdAlgorithm};
use rational::Rational;
use simulator::{ChaosPlan, Simulation, SimulationReport};
use std::sync::Barrier;

const BATCH: u64 = 2_000;
const DELTA: f64 = 1.25;

/// One hinted rule of each kernel plus an opaque one, which takes the
/// scoped-helper path.
fn rules() -> Vec<Box<dyn LocalRule + Send + Sync>> {
    // Bin 0 on [0, 1/4] ∪ [3/4, 1]: no threshold or coin shape.
    let middle_out = BinZeroSet::new(vec![
        (Rational::zero(), Rational::ratio(1, 4)),
        (Rational::ratio(3, 4), Rational::one()),
    ])
    .unwrap();
    vec![
        Box::new(SingleThresholdAlgorithm::from_f64(&[0.55, 0.7, 0.4, 0.62]).unwrap()),
        Box::new(ObliviousAlgorithm::fair(4)),
        Box::new(GeneralRule::new(vec![middle_out; 4]).unwrap()),
    ]
}

/// `(rule, p_crash, trials, seed)` for every run a caller makes.
fn runs(rules: usize) -> Vec<(usize, f64, u64, u64)> {
    let mut runs = Vec::new();
    for rule in 0..rules {
        for (i, p_crash) in [0.0, 0.3].into_iter().enumerate() {
            let trials = 9_000 + 1_500 * (rule as u64 + i as u64);
            runs.push((rule, p_crash, trials, 17 * rule as u64 + i as u64));
        }
    }
    runs
}

/// The reference: the same run on a fresh single-thread engine.
fn sequential(rule: &dyn LocalRule, p_crash: f64, trials: u64, seed: u64) -> SimulationReport {
    Simulation::new(trials, seed)
        .with_batch_size(BATCH)
        .with_threads(1)
        .run_with_crashes(rule, DELTA, p_crash)
}

/// Runs every planned run from `callers` threads at once on `engine`,
/// each caller starting at a different offset so the mix of kernels in
/// flight varies, and checks every report against the reference.
fn check_concurrent(engine: &Simulation, callers: usize) {
    let rules = rules();
    let runs = runs(rules.len());
    let expected: Vec<SimulationReport> = runs
        .iter()
        .map(|&(rule, p_crash, trials, seed)| sequential(&*rules[rule], p_crash, trials, seed))
        .collect();
    let start = Barrier::new(callers);
    std::thread::scope(|scope| {
        for caller in 0..callers {
            let (rules, runs, expected, start) = (&rules, &runs, &expected, &start);
            scope.spawn(move || {
                start.wait();
                for k in 0..runs.len() {
                    let i = (k + caller * 2) % runs.len();
                    let (rule, p_crash, trials, seed) = runs[i];
                    let report = engine.retargeted(trials, seed).unwrap().run_with_crashes(
                        &*rules[rule],
                        DELTA,
                        p_crash,
                    );
                    assert_eq!(
                        report, expected[i],
                        "caller {caller}, rule {rule}, p_crash {p_crash}, seed {seed}"
                    );
                }
            });
        }
    });
}

#[test]
fn concurrent_runs_on_a_shared_engine_are_bit_identical_to_one_thread() {
    for (threads, callers) in [(2, 2), (2, 4), (3, 3), (4, 2), (4, 4)] {
        let engine = Simulation::new(1, 0)
            .with_batch_size(BATCH)
            .with_threads(threads);
        check_concurrent(&engine, callers);
    }
}

#[test]
fn concurrent_runs_under_chaos_are_bit_identical_to_one_thread() {
    // The plan is shared by every retargeted run: each planned fault
    // fires once, in whichever run reaches its batch first, and one
    // pool worker is killed at the first pooled run.
    let plan = ChaosPlan::from_seed(5, 6, 4).with_worker_exits(1);
    let engine = Simulation::new(1, 0)
        .with_batch_size(BATCH)
        .with_threads(3)
        .with_chaos(plan);
    check_concurrent(&engine, 3);
}
