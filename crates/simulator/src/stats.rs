//! Load observability: per-bin statistics beyond the win/lose bit.
//!
//! [`load_stats`] replays the engine's exact trial stream — same
//! per-batch addressing, same uniform draws, same monomorphized
//! kernels — while additionally accounting per-bin loads, occupancy,
//! and overflow coincidences on the very same draws. Its headline
//! `report` is therefore bit-identical to [`Simulation::run`] at the
//! same `(rule, delta, trials, seed)`; earlier revisions drew a
//! private scalar stream and disagreed with the engine (the regression
//! test below pins the fix).
//!
//! Every rule replays the counter addressing of the engine's lane
//! loop: scalar [`lane_draw`] replays are bit-identical to any lane
//! width because every draw is a pure function of
//! `(seed, batch, trial, kind, player)`.

use crate::engine::{lane_key, DEFAULT_BATCH_SIZE};
use crate::kernel::{lane_draw, DrawKind, GenericKernel, Kernel, ObliviousKernel, ThresholdKernel};
use crate::SimulationReport;
use decision::{KernelHint, LocalRule};

/// Per-bin load statistics from an instrumented simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadStats {
    /// The headline win-rate estimate; bit-identical to
    /// [`Simulation::run`] at the same `(rule, delta, trials, seed)`.
    pub report: SimulationReport,
    /// Mean load placed in each bin per round.
    pub mean_load: [f64; 2],
    /// Largest load ever observed in each bin.
    pub max_load: [f64; 2],
    /// Fraction of rounds in which each bin individually overflowed.
    pub overflow_rate: [f64; 2],
    /// Fraction of rounds in which *both* bins overflowed at once —
    /// the intersection term closing the inclusion–exclusion identity
    /// `P(win) = 1 − P(over₀) − P(over₁) + P(both)`.
    pub both_overflow_rate: f64,
    /// Mean number of players choosing each bin per round.
    pub mean_occupancy: [f64; 2],
}

/// Raw counts accumulated over the instrumented trial loop.
#[derive(Default)]
struct LoadAccumulator {
    wins: u64,
    sum_load: [f64; 2],
    max_load: [f64; 2],
    overflows: [u64; 2],
    both_overflows: u64,
    occupancy: [u64; 2],
}

/// Runs an instrumented (single-threaded, deterministic) simulation
/// collecting per-bin load statistics.
///
/// The trial loop is the engine's: trials are split into fixed
/// batches, every draw is the engine's counter-addressed draw, and
/// the rule is dispatched onto the same monomorphized kernels via
/// [`decision::KernelHint`]. Only the accounting differs.
///
/// # Panics
///
/// Panics if `trials` is zero.
///
/// # Examples
///
/// ```
/// use decision::ObliviousAlgorithm;
/// use simulator::load_stats;
///
/// let rule = ObliviousAlgorithm::fair(4);
/// let stats = load_stats(&rule, 1.0, 50_000, 3);
/// // Fair coin splits the expected total load n/2 = 2 evenly.
/// assert!((stats.mean_load[0] - 1.0).abs() < 0.02);
/// assert!((stats.mean_load[1] - 1.0).abs() < 0.02);
/// assert!((stats.mean_occupancy[0] - 2.0).abs() < 0.02);
/// ```
#[must_use]
pub fn load_stats(rule: &dyn LocalRule, delta: f64, trials: u64, seed: u64) -> LoadStats {
    assert!(trials > 0, "need at least one trial"); // xtask:allow(no-panic): documented precondition
    let acc = match rule.kernel_hint() {
        KernelHint::Threshold(thresholds) => {
            contracts::invariant!(thresholds.len() == rule.n(), "kernel hint arity");
            collect_loads_lane(&ThresholdKernel::new(thresholds), delta, trials, seed)
        }
        KernelHint::Oblivious(alpha) => {
            contracts::invariant!(alpha.len() == rule.n(), "kernel hint arity");
            collect_loads_lane(&ObliviousKernel::new(alpha), delta, trials, seed)
        }
        _ => collect_loads_lane(&GenericKernel(rule), delta, trials, seed),
    };
    let t = trials as f64;
    LoadStats {
        report: SimulationReport::from_counts(acc.wins, trials),
        mean_load: [acc.sum_load[0] / t, acc.sum_load[1] / t],
        max_load: acc.max_load,
        overflow_rate: [acc.overflows[0] as f64 / t, acc.overflows[1] as f64 / t],
        both_overflow_rate: acc.both_overflows as f64 / t,
        mean_occupancy: [acc.occupancy[0] as f64 / t, acc.occupancy[1] as f64 / t],
    }
}

/// The engine's lane-path trial stream with load accounting bolted
/// on: every uniform is the counter draw
/// `lane_draw(seed-key, batch, trial, kind, player)`. Coins are drawn
/// here even for rules that ignore them — the engine skips
/// generating that plane, but the draws exist in the addressed
/// stream and a coin-blind `decide` returns the same bin either way.
/// Branchy accumulation here matches the lane kernel's masked
/// accumulation bit-for-bit (masks are exactly `0.0`/`1.0` and
/// adding `+0.0` to a non-negative sum is identity), so `report`
/// equals [`Simulation::run`] on any lane width.
///
/// [`Simulation::run`]: crate::Simulation::run
fn collect_loads_lane<K: Kernel>(
    kernel: &K,
    delta: f64,
    trials: u64,
    seed: u64,
) -> LoadAccumulator {
    let key = lane_key(seed);
    let mut acc = LoadAccumulator::default();
    let n = kernel.players();
    let batches = trials.div_ceil(DEFAULT_BATCH_SIZE);
    for batch in 0..batches {
        let start = batch * DEFAULT_BATCH_SIZE;
        let count = DEFAULT_BATCH_SIZE.min(trials - start);
        for trial in 0..count {
            let mut sums = [0.0f64; 2];
            for player in 0..n {
                let input = lane_draw(&key, batch, trial, DrawKind::Input, player);
                let coin = lane_draw(&key, batch, trial, DrawKind::Coin, player);
                let bin = usize::from(!kernel.sends_to_zero(player, input, coin));
                sums[bin] += input;
                acc.occupancy[bin] += 1;
            }
            account_trial(&mut acc, delta, sums);
        }
    }
    check_inclusion_exclusion(&acc, trials);
    acc
}

/// Folds one finished trial's bin sums into the accumulator.
#[inline]
fn account_trial(acc: &mut LoadAccumulator, delta: f64, sums: [f64; 2]) {
    for (b, &sum) in sums.iter().enumerate() {
        acc.sum_load[b] += sum;
        if sum > acc.max_load[b] {
            acc.max_load[b] = sum;
        }
        if sum > delta {
            acc.overflows[b] += 1;
        }
    }
    if sums[0] > delta && sums[1] > delta {
        acc.both_overflows += 1;
    }
    if sums[0] <= delta && sums[1] <= delta {
        acc.wins += 1;
    }
}

/// The count-exact inclusion–exclusion identity every collector must
/// satisfy: wins + over₀ + over₁ = trials + both.
fn check_inclusion_exclusion(acc: &LoadAccumulator, trials: u64) {
    contracts::invariant!(
        acc.wins + acc.overflows[0] + acc.overflows[1] == trials + acc.both_overflows,
        "inclusion-exclusion must balance exactly in counts"
    );
    let _ = (acc, trials);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;
    use decision::{ObliviousAlgorithm, SingleThresholdAlgorithm};
    use rational::Rational;

    #[test]
    fn loads_are_conserved_and_balanced_for_fair_coin() {
        let rule = ObliviousAlgorithm::fair(6);
        let stats = load_stats(&rule, 2.0, 60_000, 9);
        // Total expected load is n/2 = 3, split evenly.
        let total = stats.mean_load[0] + stats.mean_load[1];
        assert!((total - 3.0).abs() < 0.02, "total {total}");
        assert!((stats.mean_load[0] - stats.mean_load[1]).abs() < 0.03);
        assert!((stats.mean_occupancy[0] + stats.mean_occupancy[1] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn threshold_rule_loads_bins_asymmetrically() {
        // β = 3/4: bin 0 receives many small inputs, bin 1 few large.
        let rule = SingleThresholdAlgorithm::symmetric(4, Rational::ratio(3, 4)).unwrap();
        let stats = load_stats(&rule, 4.0 / 3.0, 60_000, 10);
        // Bin-0 expected occupancy 3, load 4·E[x·1(x≤3/4)] = 4·(9/32).
        assert!((stats.mean_occupancy[0] - 3.0).abs() < 0.03);
        assert!((stats.mean_load[0] - 4.0 * 9.0 / 32.0).abs() < 0.02);
        // Bin-1 inputs are in (3/4, 1]: mean 7/8 each, one per round.
        assert!((stats.mean_load[1] - 7.0 / 8.0).abs() < 0.02);
    }

    /// Hides a rule's structure so `load_stats` takes the
    /// [`KernelHint::Opaque`] fallback path.
    struct Opaque<'a>(&'a dyn LocalRule);

    impl LocalRule for Opaque<'_> {
        fn n(&self) -> usize {
            self.0.n()
        }
        fn decide(&self, player: usize, input: f64, coin: f64) -> decision::Bin {
            self.0.decide(player, input, coin)
        }
    }

    #[test]
    fn report_is_bit_identical_to_the_engine() {
        // The headline regression: per dispatch path, the win estimate
        // from the instrumented loop equals Simulation::run exactly —
        // same seeds, same draws, same f64 accumulation order. Trial
        // counts straddle batch boundaries on purpose.
        let threshold = SingleThresholdAlgorithm::symmetric(3, Rational::ratio(5, 8)).unwrap();
        let oblivious = ObliviousAlgorithm::fair(4);
        for trials in [1u64, 1_000, 16_384, 50_000] {
            for seed in [0u64, 7, 41] {
                let sim = Simulation::new(trials, seed);
                assert_eq!(
                    load_stats(&threshold, 1.0, trials, seed).report,
                    sim.run(&threshold, 1.0),
                    "threshold: trials {trials}, seed {seed}"
                );
                assert_eq!(
                    load_stats(&oblivious, 1.0, trials, seed).report,
                    sim.run(&oblivious, 1.0),
                    "oblivious: trials {trials}, seed {seed}"
                );
                assert_eq!(
                    load_stats(&Opaque(&oblivious), 1.0, trials, seed).report,
                    sim.run(&Opaque(&oblivious), 1.0),
                    "opaque: trials {trials}, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn win_rate_consistent_with_overflow_rates() {
        let rule = ObliviousAlgorithm::fair(3);
        let stats = load_stats(&rule, 1.0, 80_000, 11);
        // Winning is exactly "neither bin overflows", so by
        // inclusion–exclusion over the two overflow events
        //     P(win) = 1 − P(over₀) − P(over₁) + P(both).
        // The identity is exact in counts (asserted inside the
        // collector); the rates re-derive it up to division rounding.
        let identity =
            1.0 - stats.overflow_rate[0] - stats.overflow_rate[1] + stats.both_overflow_rate;
        assert!(
            (stats.report.estimate - identity).abs() < 1e-12,
            "estimate {} vs identity {identity}",
            stats.report.estimate
        );
        // The intersection is contained in each overflow event.
        assert!(stats.both_overflow_rate <= stats.overflow_rate[0]);
        assert!(stats.both_overflow_rate <= stats.overflow_rate[1]);
        // At δ = 1, n = 3 a joint overflow needs total load > 2 out of
        // at most 3 — rare (loads are sums of uniforms) but possible,
        // which is exactly why the identity needs the `+ P(both)` term.
        assert!(stats.report.estimate <= 1.0);
    }

    #[test]
    fn max_load_bounded_by_occupancy() {
        let rule = ObliviousAlgorithm::fair(5);
        let stats = load_stats(&rule, 5.0, 20_000, 12);
        assert!(stats.max_load[0] <= 5.0);
        assert!(stats.max_load[1] <= 5.0);
        assert_eq!(stats.report.wins, stats.report.trials); // δ = n
        assert!(stats.both_overflow_rate.abs() < f64::EPSILON); // nothing overflows at δ = n
    }

    #[test]
    fn deterministic_per_seed() {
        let rule = ObliviousAlgorithm::fair(2);
        let a = load_stats(&rule, 1.0, 5_000, 1);
        let b = load_stats(&rule, 1.0, 5_000, 1);
        assert_eq!(a, b);
    }
}
