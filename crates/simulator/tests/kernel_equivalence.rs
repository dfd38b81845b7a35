//! Property tests pinning the engine's central transparency claim:
//! monomorphized kernels, the opaque per-decision fallback, and the
//! persistent pool are *views* of one logical computation on one
//! counter-addressed stream, so every dispatch path produces a
//! bit-identical [`simulator::SimulationReport`] for the same
//! `(rule, seed, trials, batch size, thread count, p_crash)`.

use decision::{Bin, LocalRule, ObliviousAlgorithm, SingleThresholdAlgorithm};
use proptest::prelude::*;
use rational::Rational;
use simulator::Simulation;

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

fn oblivious_rule() -> impl Strategy<Value = ObliviousAlgorithm> {
    proptest::collection::vec(unit_rational(), 2..6)
        .prop_map(|alpha| ObliviousAlgorithm::new(alpha).unwrap())
}

fn threshold_rule() -> impl Strategy<Value = SingleThresholdAlgorithm> {
    proptest::collection::vec(unit_rational(), 2..6)
        .prop_map(|thresholds| SingleThresholdAlgorithm::new(thresholds).unwrap())
}

/// The hinted kernel and the opaque fallback must agree exactly for
/// one engine configuration: both run the lane loop on the same
/// counter draws, so only the dispatch differs.
fn assert_paths_agree(rule: &dyn LocalRule, sim: &Simulation, delta: f64, p_crash: f64) {
    let fast = sim.run_with_crashes(rule, delta, p_crash);
    let opaque = sim.run_with_crashes(&Opaque(rule), delta, p_crash);
    assert_eq!(
        fast, opaque,
        "kernel vs generic fallback, p_crash {p_crash}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn oblivious_dispatch_paths_agree(
        rule in oblivious_rule(),
        seed in 0u64..1 << 32,
        threads in 1usize..5,
        batch_size in 500u64..4_000,
    ) {
        let sim = Simulation::new(10_000, seed)
            .with_threads(threads)
            .with_batch_size(batch_size);
        assert_paths_agree(&rule, &sim, 1.0, 0.0);
    }

    #[test]
    fn threshold_dispatch_paths_agree(
        rule in threshold_rule(),
        seed in 0u64..1 << 32,
        threads in 1usize..5,
        batch_size in 500u64..4_000,
    ) {
        let sim = Simulation::new(10_000, seed)
            .with_threads(threads)
            .with_batch_size(batch_size);
        assert_paths_agree(&rule, &sim, 1.0, 0.0);
    }

    #[test]
    fn crash_fault_dispatch_paths_agree(
        threshold in threshold_rule(),
        oblivious in oblivious_rule(),
        seed in 0u64..1 << 32,
        threads in 1usize..5,
        batch_size in 500u64..4_000,
        p_crash in 0.05f64..0.95,
    ) {
        // p_crash > 0 generates the fault plane: the crashed players
        // must be the same ones on both paths.
        let sim = Simulation::new(8_000, seed)
            .with_threads(threads)
            .with_batch_size(batch_size);
        assert_paths_agree(&threshold, &sim, 1.0, p_crash);
        assert_paths_agree(&oblivious, &sim, 1.0, p_crash);
    }

    #[test]
    fn thread_counts_and_pool_reuse_never_change_reports(
        rule in oblivious_rule(),
        seed in 0u64..1 << 32,
    ) {
        let reference = Simulation::new(12_000, seed)
            .with_threads(1)
            .with_batch_size(1_500)
            .run(&rule, 1.0);
        for threads in [2usize, 4, 8] {
            let sim = Simulation::new(12_000, seed)
                .with_threads(threads)
                .with_batch_size(1_500);
            // Two runs on the same engine: the second reuses the
            // pool spawned by the first.
            prop_assert_eq!(sim.run(&rule, 1.0), reference.clone());
            prop_assert_eq!(sim.run(&rule, 1.0), reference.clone());
        }
    }
}

#[test]
fn multi_block_dispatch_paths_agree() {
    // Eight draws share a Threefry block, so these player counts
    // leave an unused low half (7, 9, 17), fill a block exactly
    // (8, 16), or start a second or third block (9, 17). Per-player
    // parameters differ, so a draw read from the wrong slot changes
    // a decision on one path and not the other.
    for n in [7usize, 8, 9, 16, 17] {
        let spread = |lo: i64| -> Vec<Rational> {
            (0..n as i64)
                .map(|p| Rational::ratio(lo + (p * 7) % 11, 32))
                .collect()
        };
        let threshold = SingleThresholdAlgorithm::new(spread(11)).unwrap();
        let oblivious = ObliviousAlgorithm::new(spread(8)).unwrap();
        let delta = n as f64 / 3.0;
        for threads in [1usize, 3] {
            let sim = Simulation::new(6_000, 40 + n as u64)
                .with_threads(threads)
                .with_batch_size(1_000);
            for p_crash in [0.0, 0.3] {
                assert_paths_agree(&threshold, &sim, delta, p_crash);
                assert_paths_agree(&oblivious, &sim, delta, p_crash);
            }
            let report = sim.run(&threshold, delta);
            assert!(
                0 < report.wins && report.wins < report.trials,
                "n {n}: {report}"
            );
        }
    }
}
