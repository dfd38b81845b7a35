//! Monomorphized decision kernels and the counter-addressed draw
//! layout: the building blocks of the engine's hot loop.
//!
//! A [`Kernel`] is the hot-loop view of a [`LocalRule`]: the decision
//! as a bool (`true` = bin 0) rather than a [`Bin`], so the lane loop
//! turns it into a `{0.0, 1.0}` mask and accumulates both bin sums
//! without a branch per player. The batch runner is generic over it,
//! so the compiler emits one specialized trial loop per kernel type
//! with the decision inlined — no virtual call and no
//! `Rational → f64` conversion per player per trial. The engine picks
//! the kernel once per run from [`decision::KernelHint`]; rules
//! without a hint fall back to [`GenericKernel`], which calls
//! [`LocalRule::decide`] per decision on the same lane loop.
//!
//! Uniforms are addressed by `(batch, trial, kind, player)` on the
//! counter-based Threefry generator ([`DrawKind`],
//! [`LANE_STREAM_DOMAIN`]) — there is no sequential stream at all.
//! The engine's lane loop computes each counter block for `LANES`
//! trials at once and consumes its words in registers as it goes;
//! there is no uniform buffer. Each draw is a pure function of its
//! coordinates, so every lane width produces bit-identical results
//! by construction, and [`lane_draw`] replays any single draw (see
//! the engine module docs, stream versions v3–v6).

use decision::{Bin, LocalRule};
use rand::counter::{half_to_unit, threefry4x64, CounterKey};

/// The hot-loop view of a decision rule. Implementations must be
/// pure: `sends_to_zero` may depend only on its arguments and the
/// kernel's construction-time parameters, never on mutable state, and
/// must agree exactly with the rule's [`LocalRule::decide`] — the
/// kernel tests cross-check this.
pub(crate) trait Kernel: Sync {
    /// Whether `sends_to_zero` reads its `coin` argument. When
    /// `false` the lane runner never *generates* the coin plane —
    /// the draws still exist in the addressed stream (replay can
    /// produce them), they are simply never evaluated, which is the
    /// core payoff of counter-based generation. Implementations must
    /// uphold the contract: reading `coin` with `USES_COINS = false`
    /// would observe the runner's constant placeholder.
    const USES_COINS: bool;

    /// Number of players in the system.
    fn players(&self) -> usize;

    /// True iff `player` sends its input to bin 0 on `(input, coin)`.
    fn sends_to_zero(&self, player: usize, input: f64, coin: f64) -> bool;
}

/// Fast path for [`decision::SingleThresholdAlgorithm`]-shaped rules:
/// bin 0 iff `input ≤ thresholds[player]`, with the thresholds
/// pre-converted to `f64` once per run.
pub(crate) struct ThresholdKernel {
    thresholds: Vec<f64>,
}

impl ThresholdKernel {
    pub(crate) fn new(thresholds: Vec<f64>) -> ThresholdKernel {
        ThresholdKernel { thresholds }
    }
}

impl Kernel for ThresholdKernel {
    const USES_COINS: bool = false;

    fn players(&self) -> usize {
        self.thresholds.len()
    }

    #[inline]
    fn sends_to_zero(&self, player: usize, input: f64, _coin: f64) -> bool {
        input <= self.thresholds[player]
    }
}

/// Fast path for [`decision::ObliviousAlgorithm`]-shaped rules: bin 0
/// iff `coin < alpha[player]`, with the probabilities pre-converted
/// to `f64` once per run.
pub(crate) struct ObliviousKernel {
    alpha: Vec<f64>,
}

impl ObliviousKernel {
    pub(crate) fn new(alpha: Vec<f64>) -> ObliviousKernel {
        ObliviousKernel { alpha }
    }
}

impl Kernel for ObliviousKernel {
    const USES_COINS: bool = true;

    fn players(&self) -> usize {
        self.alpha.len()
    }

    #[inline]
    fn sends_to_zero(&self, player: usize, _input: f64, coin: f64) -> bool {
        coin < self.alpha[player]
    }
}

/// Fallback kernel for [`decision::KernelHint::Opaque`] rules: one
/// [`LocalRule::decide`] call per decision, monomorphized over `R`
/// when the rule type is concrete and a virtual call for
/// `R = dyn LocalRule`. An opaque rule may read its coin, so the
/// coin plane is always generated.
pub(crate) struct GenericKernel<'a, R: LocalRule + ?Sized>(pub(crate) &'a R);

impl<R: LocalRule + ?Sized> Kernel for GenericKernel<'_, R> {
    const USES_COINS: bool = true;

    fn players(&self) -> usize {
        self.0.n()
    }

    #[inline]
    fn sends_to_zero(&self, player: usize, input: f64, coin: f64) -> bool {
        self.0.decide(player, input, coin) == Bin::Zero
    }
}

/// Domain tag occupying counter word 3 of every stream-v3 block
/// (ASCII `nocomm-3`): counters used by this engine can never collide
/// with counters another subsystem might derive from the same key.
pub(crate) const LANE_STREAM_DOMAIN: u64 = 0x6e6f_636f_6d6d_2d33;

/// The role a uniform plays in one trial. The stream addresses draws
/// by `(kind, player)` rather than by a flat per-trial index: each
/// kind occupies its own **plane** of counter blocks, so a kernel
/// that never reads a kind (thresholds ignore coins; crash-free runs
/// draw no fault coins) skips generating that plane outright instead
/// of computing and discarding it. Planes also keep common random
/// numbers across rules: runs of different rules with one seed read
/// the same input plane, whatever else they draw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DrawKind {
    /// The player's private input value (always consumed: payoffs
    /// sum inputs whatever the rule does).
    Input = 0,
    /// The player's private coin (consumed only by coin-driven
    /// rules, e.g. oblivious mixes).
    Coin = 1,
    /// The player's crash coin (consumed only when `p_crash > 0`).
    Fault = 2,
}

/// Shift positioning the kind tag above any realistic player-block
/// index in counter word 2: planes of different kinds can never
/// collide.
pub(crate) const KIND_SHIFT: u32 = 32;

/// Uniforms per Threefry block and plane (stream v6): four 64-bit
/// words, two 32-bit halves each ([`half_to_unit`]).
pub(crate) const DRAWS_PER_BLOCK: usize = 8;

/// Scalar stream replay: uniform `(kind, player)` of trial `trial`
/// in batch `batch`.
///
/// Uniform `(kind, p)` of trial `t` is half `p mod 2` (`0` = high 32
/// bits) of word `(p mod 8) / 2` of the block at counter
/// `[batch, t, kind · 2³² + p / 8, LANE_STREAM_DOMAIN]` — a pure
/// function of the key and the draw's own coordinates, so this is
/// bit-identical to what the engine's lane loop reads for trial `t`
/// at any lane width. This is what `load_stats` and the invariance
/// tests rebuild engine streams from — one block per call, so it is
/// replay-grade, not hot-loop-grade.
pub(crate) fn lane_draw(
    key: &CounterKey,
    batch: u64,
    trial: u64,
    kind: DrawKind,
    player: usize,
) -> f64 {
    let word2 = ((kind as u64) << KIND_SHIFT) | (player / DRAWS_PER_BLOCK) as u64;
    let block = threefry4x64(key, [batch, trial, word2, LANE_STREAM_DOMAIN]);
    let slot = player % DRAWS_PER_BLOCK;
    half_to_unit(block[slot / 2], slot % 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decision::{ObliviousAlgorithm, SingleThresholdAlgorithm};
    use rational::Rational;

    /// Asserts `kernel` sends exactly the inputs `rule` puts in bin 0
    /// on a grid straddling every threshold/probability boundary.
    fn assert_matches_rule<K: Kernel>(kernel: &K, rule: &dyn LocalRule) {
        assert_eq!(kernel.players(), rule.n());
        for &x in &[0.0, 0.2, 0.2499, 0.25, 0.26, 0.625, 0.74, 0.75, 0.99, 1.0] {
            for &c in &[0.0, 0.2999, 0.3, 1.0 / 3.0, 0.5, 0.7499, 0.75, 1.0 - 1e-9] {
                for p in 0..rule.n() {
                    assert_eq!(
                        kernel.sends_to_zero(p, x, c),
                        rule.decide(p, x, c) == Bin::Zero,
                        "player {p}, input {x}, coin {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn threshold_kernel_matches_rule_decisions() {
        let rule = SingleThresholdAlgorithm::new(vec![
            Rational::ratio(1, 4),
            Rational::ratio(5, 8),
            Rational::ratio(1, 1),
        ])
        .unwrap();
        assert_matches_rule(&ThresholdKernel::new(rule.thresholds_f64()), &rule);
    }

    #[test]
    fn oblivious_kernel_matches_rule_decisions() {
        let rule =
            ObliviousAlgorithm::new(vec![Rational::ratio(1, 3), Rational::ratio(3, 4)]).unwrap();
        assert_matches_rule(&ObliviousKernel::new(rule.probabilities_f64()), &rule);
    }

    #[test]
    fn generic_kernel_forwards_to_the_rule() {
        let rule =
            ObliviousAlgorithm::new(vec![Rational::ratio(3, 10), Rational::ratio(3, 4)]).unwrap();
        assert_matches_rule(&GenericKernel(&rule), &rule);
        // And through a trait object, exercising the dyn instantiation.
        let dynamic: &dyn LocalRule = &rule;
        assert_matches_rule(&GenericKernel(dynamic), &rule);
        let rule = SingleThresholdAlgorithm::symmetric(3, Rational::ratio(5, 8)).unwrap();
        assert_matches_rule(&GenericKernel(&rule), &rule);
    }
}
