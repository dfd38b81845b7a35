//! Property tests for the observability layer's central claims:
//!
//! 1. **Conservation** — the metrics counters are exact, not sampled:
//!    RNG draws equal `trials × players × draws-per-player`, lane
//!    blocks equal the per-batch count of generated counter blocks on
//!    every dispatch path, and every batch drained through the
//!    persistent pool is accounted to `pool.batches`.
//! 2. **Transparency** — attaching a sink changes nothing: estimates
//!    are bit-identical with [`EngineMetrics`] attached vs the default
//!    no-op sink.

use decision::{Bin, LocalRule, ObliviousAlgorithm, SingleThresholdAlgorithm};
use proptest::prelude::*;
use rational::Rational;
use simulator::{EngineMetrics, Simulation};
use std::sync::Arc;

/// Hides a rule's [`decision::KernelHint`] so the engine takes the
/// generic per-decision fallback.
struct Opaque<'a>(&'a dyn LocalRule);

impl LocalRule for Opaque<'_> {
    fn n(&self) -> usize {
        self.0.n()
    }
    fn decide(&self, player: usize, input: f64, coin: f64) -> Bin {
        self.0.decide(player, input, coin)
    }
}

fn unit_rational() -> impl Strategy<Value = Rational> {
    (0i64..=16, 16i64..=16).prop_map(|(num, den)| Rational::ratio(num, den))
}

// Up to 19 players, so the lane-block law runs over one, two and
// three blocks per plane (eight players per block).
fn oblivious_rule() -> impl Strategy<Value = ObliviousAlgorithm> {
    proptest::collection::vec(unit_rational(), 2..20)
        .prop_map(|alpha| ObliviousAlgorithm::new(alpha).unwrap())
}

fn threshold_rule() -> impl Strategy<Value = SingleThresholdAlgorithm> {
    proptest::collection::vec(unit_rational(), 2..20)
        .prop_map(|thresholds| SingleThresholdAlgorithm::new(thresholds).unwrap())
}

/// The exact number of Threefry counter blocks the lane path (width
/// `lanes`) evaluates: each lane group covers `lanes` trials and
/// fills `⌈n / 8⌉` blocks per generated draw plane — four words, two
/// draws per word (tail
/// groups still fill full planes; tail lanes are compute, not
/// stream). `planes` counts only what the run consumes — inputs
/// always, coins when the kernel reads them, fault coins when drawn.
fn expected_lane_blocks(trials: u64, batch_size: u64, n: u64, planes: u64, lanes: u64) -> u64 {
    let blocks_per_group = n.div_ceil(8) * planes;
    let batches = trials.div_ceil(batch_size);
    (0..batches)
        .map(|batch| {
            let count = batch_size.min(trials - batch * batch_size);
            count.div_ceil(lanes) * blocks_per_group
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Draw and lane-block conservation under both crash regimes on
    // a hinted kernel.
    #[test]
    fn rng_draws_conserve_trials_times_per_player_draws(
        rule in threshold_rule(),
        seed in 0u64..1 << 32,
        trials in 1u64..20_000,
        batch_size in 500u64..4_000,
        threads in 1usize..5,
        crashes in any::<bool>(),
    ) {
        let p_crash = if crashes { 0.25 } else { 0.0 };
        // Logical draws: input and coin per player, plus the fault
        // coin when crashes are possible.
        let per_player: u64 = if crashes { 3 } else { 2 };
        let n = rule.n() as u64;

        let metrics = Arc::new(EngineMetrics::new());
        let sim = Simulation::new(trials, seed)
            .with_threads(threads)
            .with_batch_size(batch_size)
            .with_metrics(metrics.clone());
        let report = sim.run_with_crashes(&rule, 1.0, p_crash);

        let snap = metrics.snapshot();
        // Threshold kernels are coin-blind, so the generated planes
        // are the input plane plus the fault plane when drawn.
        let planes = if crashes { 2 } else { 1 };
        prop_assert_eq!(snap.rng_draws, trials * n * per_player);
        prop_assert_eq!(
            snap.rng_lane_blocks,
            expected_lane_blocks(trials, batch_size, n, planes, 16)
        );
        prop_assert_eq!(snap.trials, trials);
        prop_assert_eq!(snap.wins, report.wins);
        prop_assert_eq!(snap.batches, trials.div_ceil(batch_size));
        prop_assert_eq!(snap.runs, 1);
        prop_assert_eq!(snap.dispatch_threshold, 1);
    }

    // The opaque fallback runs on the same lane loop, but may read
    // its coin, so it always generates the coin plane: one more
    // plane than the coin-blind threshold kernel it hides.
    #[test]
    fn opaque_rules_generate_the_coin_plane(
        rule in threshold_rule(),
        seed in 0u64..1 << 32,
        trials in 1u64..20_000,
        batch_size in 500u64..4_000,
        threads in 1usize..5,
        crashes in any::<bool>(),
    ) {
        let p_crash = if crashes { 0.25 } else { 0.0 };
        let n = rule.n() as u64;
        let metrics = Arc::new(EngineMetrics::new());
        let sim = Simulation::new(trials, seed)
            .with_threads(threads)
            .with_batch_size(batch_size)
            .with_metrics(metrics.clone());
        let _ = sim.run_with_crashes(&Opaque(&rule), 1.0, p_crash);

        let snap = metrics.snapshot();
        let per_player: u64 = if crashes { 3 } else { 2 };
        prop_assert_eq!(snap.rng_draws, trials * n * per_player);
        prop_assert_eq!(
            snap.rng_lane_blocks,
            expected_lane_blocks(trials, batch_size, n, per_player, 16)
        );
        prop_assert_eq!(snap.dispatch_opaque, 1);
    }

    // Every batch a pooled run executes is accounted to
    // `pool.batches`: the drains (workers plus the submitting
    // thread) must sum to exactly the batches submitted.
    #[test]
    fn pool_batches_sum_to_batches_submitted(
        rule in oblivious_rule(),
        seed in 0u64..1 << 32,
        threads in 2usize..5,
        runs in 1usize..4,
    ) {
        let trials = 12_000u64;
        let batch_size = 1_000u64; // 12 batches ≥ every thread count
        let metrics = Arc::new(EngineMetrics::new());
        let sim = Simulation::new(trials, seed)
            .with_threads(threads)
            .with_batch_size(batch_size)
            .with_metrics(metrics.clone());
        for _ in 0..runs {
            let _ = sim.run(&rule, 1.0);
        }
        let snap = metrics.snapshot();
        let batches = trials.div_ceil(batch_size) * runs as u64;
        prop_assert_eq!(snap.batches, batches);
        // The owned-kernel path drains everything through the pool's
        // shared counter, whichever thread picked each batch up.
        prop_assert_eq!(snap.pool_batches, batches);
        prop_assert_eq!(snap.pool_panics, 0);
    }

    // Attaching a sink is observationally free: reports are
    // bit-identical with metrics enabled vs the no-op default, on
    // every dispatch path.
    #[test]
    fn estimates_bit_identical_with_metrics_attached(
        rule in oblivious_rule(),
        seed in 0u64..1 << 32,
        threads in 1usize..5,
        batch_size in 500u64..4_000,
    ) {
        let trials = 10_000u64;
        let plain = Simulation::new(trials, seed)
            .with_threads(threads)
            .with_batch_size(batch_size);
        let metered = plain.clone().with_metrics(Arc::new(EngineMetrics::new()));
        prop_assert_eq!(metered.run(&rule, 1.0), plain.run(&rule, 1.0));
        prop_assert_eq!(
            metered.run_with_crashes(&Opaque(&rule), 1.0, 0.25),
            plain.run_with_crashes(&Opaque(&rule), 1.0, 0.25)
        );
    }
}
