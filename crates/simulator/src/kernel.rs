//! Monomorphized decision kernels and uniform-sample sources: the
//! building blocks of the engine's hot loop.
//!
//! A [`Kernel`] is the hot-loop view of a [`LocalRule`]: the batch
//! runner is generic over it, so the compiler emits one specialized
//! trial loop per kernel type with the decision inlined — no virtual
//! call and no `Rational → f64` conversion per player per trial. The
//! engine picks the kernel once per run from
//! [`decision::KernelHint`]; rules without a hint fall back to
//! [`GenericKernel`], which is still monomorphized over the concrete
//! rule type when one is known and degrades to per-decision dynamic
//! dispatch only for `dyn LocalRule`.
//!
//! A [`UniformSource`] abstracts how `[0, 1)` samples are drawn from
//! the per-batch generator. [`ScalarUniforms`] draws one sample per
//! call (the v1 engine's pattern, kept as the reference baseline);
//! [`BufferedUniforms`] refills a fixed chunk per refill and hands
//! samples out of the buffer. Both produce bit-identical streams —
//! buffering is a pure prefetch of the same sequence — which the
//! kernel-equivalence tests rely on.
//!
//! The stream-v3 lane layer sits beside them: a [`LaneKernel`] is a
//! branch-free view of a hinted kernel (the decision as a mask rather
//! than a [`Bin`]), and uniforms are addressed by
//! `(batch, trial, kind, player)` on the counter-based Threefry
//! generator ([`DrawKind`], [`LANE_STREAM_DOMAIN`]) — no sequential
//! stream at all. The engine's lane loop computes each counter block
//! for `LANES` trials at once and consumes its words in registers as
//! it goes; there is no uniform buffer on that path. Each draw is a
//! pure function of its coordinates, so every lane width produces
//! bit-identical results by construction, and [`lane_draw`] replays
//! any single draw (see the engine module docs, streams v3 and v4).

use decision::{Bin, LocalRule};
use rand::counter::{threefry4x64, word_to_unit, CounterKey};
use rand::rngs::StdRng;
use rand::{unit_f64, Rng};

/// The hot-loop view of a decision rule. Implementations must be
/// pure: `decide` may depend only on its arguments and the kernel's
/// construction-time parameters, never on mutable state.
pub(crate) trait Kernel: Sync {
    /// Number of players in the system.
    fn players(&self) -> usize;

    /// The bin player `player` chooses on `(input, coin)`.
    fn decide(&self, player: usize, input: f64, coin: f64) -> Bin;
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
    fn players(&self) -> usize {
        self.thresholds.len()
    }

    #[inline]
    fn decide(&self, player: usize, input: f64, _coin: f64) -> Bin {
        if input <= self.thresholds[player] {
            Bin::Zero
        } else {
            Bin::One
        }
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
    fn players(&self) -> usize {
        self.alpha.len()
    }

    #[inline]
    fn decide(&self, player: usize, _input: f64, coin: f64) -> Bin {
        if coin < self.alpha[player] {
            Bin::Zero
        } else {
            Bin::One
        }
    }
}

/// The branch-free view of a hinted kernel: the decision as a bool
/// (`true` = bin 0) instead of a [`Bin`], so the lane loop can turn
/// it into a `{0.0, 1.0}` mask and accumulate both bin sums without
/// a branch per player. Implementations must agree exactly with
/// [`Kernel::decide`] — the lane tests cross-check this.
///
/// Only the two hinted kernels implement it: the opaque fallback
/// keeps the sequential v2 path, where a virtual `decide` per
/// decision dominates anyway.
pub(crate) trait LaneKernel: Kernel {
    /// Whether `sends_to_zero` reads its `coin` argument. When
    /// `false` the lane runner never *generates* the coin plane —
    /// the draws still exist in the addressed stream (replay can
    /// produce them), they are simply never evaluated, which is the
    /// core payoff of counter-based generation. Implementations must
    /// uphold the contract: reading `coin` with `USES_COINS = false`
    /// would observe the runner's constant placeholder.
    const USES_COINS: bool;

    /// True iff `player` sends its input to bin 0 on `(input, coin)`.
    fn sends_to_zero(&self, player: usize, input: f64, coin: f64) -> bool;
}

impl LaneKernel for ThresholdKernel {
    const USES_COINS: bool = false;

    #[inline]
    fn sends_to_zero(&self, player: usize, input: f64, _coin: f64) -> bool {
        input <= self.thresholds[player]
    }
}

impl LaneKernel for ObliviousKernel {
    const USES_COINS: bool = true;

    #[inline]
    fn sends_to_zero(&self, player: usize, _input: f64, coin: f64) -> bool {
        coin < self.alpha[player]
    }
}

/// Fallback kernel: one [`LocalRule::decide`] call per decision.
/// Monomorphized over `R` when the rule type is concrete; for
/// `R = dyn LocalRule` every decision is a virtual call — the
/// engine's dispatch baseline.
pub(crate) struct GenericKernel<'a, R: LocalRule + ?Sized>(pub(crate) &'a R);

impl<R: LocalRule + ?Sized> Kernel for GenericKernel<'_, R> {
    fn players(&self) -> usize {
        self.0.n()
    }

    #[inline]
    fn decide(&self, player: usize, input: f64, coin: f64) -> Bin {
        self.0.decide(player, input, coin)
    }
}

/// A stream of uniform `[0, 1)` samples drawn from a seeded
/// generator. Every implementation built from the same [`StdRng`]
/// state must yield the same sequence.
///
/// Sources also keep audit counts of their own consumption —
/// [`UniformSource::draws`] and [`UniformSource::refills`] — which
/// the engine flushes to its metrics sink at batch granularity. The
/// counts are derived from state the source maintains anyway (or, for
/// the scalar baseline, one local increment per draw), so the hot
/// loop shape is unchanged.
pub(crate) trait UniformSource: From<StdRng> {
    /// The next uniform sample.
    fn next_unit(&mut self) -> f64;

    /// Samples handed out so far.
    fn draws(&self) -> u64;

    /// Buffer refills performed so far (zero for unbuffered sources).
    fn refills(&self) -> u64;
}

/// One `gen_range` call per sample — the v1 engine's draw pattern,
/// kept as the reference baseline for benchmarks and differential
/// tests.
pub(crate) struct ScalarUniforms {
    rng: StdRng,
    draws: u64,
}

impl From<StdRng> for ScalarUniforms {
    fn from(rng: StdRng) -> ScalarUniforms {
        ScalarUniforms { rng, draws: 0 }
    }
}

impl UniformSource for ScalarUniforms {
    #[inline]
    fn next_unit(&mut self) -> f64 {
        self.draws += 1;
        self.rng.gen_range(0.0..1.0)
    }

    fn draws(&self) -> u64 {
        self.draws
    }

    fn refills(&self) -> u64 {
        0
    }
}

/// Number of uniforms produced per buffer refill.
const CHUNK: usize = 256;

/// Chunked sampling: a fixed `[f64; CHUNK]` buffer is refilled in one
/// tight loop and samples are handed out of it, amortizing the
/// per-draw call overhead. The sequence is identical to
/// [`ScalarUniforms`] — buffering is a transparent prefetch.
pub(crate) struct BufferedUniforms {
    rng: StdRng,
    buffer: [f64; CHUNK],
    next: usize,
    refills: u64,
}

impl From<StdRng> for BufferedUniforms {
    fn from(rng: StdRng) -> BufferedUniforms {
        BufferedUniforms {
            rng,
            buffer: [0.0; CHUNK],
            next: CHUNK,
            refills: 0,
        }
    }
}

impl BufferedUniforms {
    #[cold]
    fn refill(&mut self) {
        for slot in &mut self.buffer {
            *slot = unit_f64(&mut self.rng);
        }
        self.next = 0;
        self.refills += 1;
    }
}

impl UniformSource for BufferedUniforms {
    #[inline]
    fn next_unit(&mut self) -> f64 {
        if self.next == CHUNK {
            self.refill();
        }
        let sample = self.buffer[self.next];
        self.next += 1;
        sample
    }

    /// Draws are derived from the refill count and the buffer cursor
    /// — `refills · CHUNK` samples produced minus the part of the
    /// last chunk not yet handed out — so counting them costs the hot
    /// loop nothing.
    fn draws(&self) -> u64 {
        if self.refills == 0 {
            return 0;
        }
        (self.refills - 1) * CHUNK as u64 + self.next as u64
    }

    fn refills(&self) -> u64 {
        self.refills
    }
}

/// Domain tag occupying counter word 3 of every stream-v3 block
/// (ASCII `nocomm-3`): counters used by this engine can never collide
/// with counters another subsystem might derive from the same key.
pub(crate) const LANE_STREAM_DOMAIN: u64 = 0x6e6f_636f_6d6d_2d33;

/// The role a uniform plays in one trial. Stream v3 addresses draws
/// by `(kind, player)` rather than by a flat per-trial index: each
/// kind occupies its own **plane** of counter blocks, so a kernel
/// that never reads a kind (thresholds ignore coins; crash-free runs
/// draw no fault coins) skips generating that plane outright instead
/// of computing and discarding it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DrawKind {
    /// The player's private input value (always consumed: payoffs
    /// sum inputs whatever the rule does).
    Input = 0,
    /// The player's private coin (consumed only by coin-driven
    /// rules, e.g. oblivious mixes).
    Coin = 1,
    /// The player's crash coin (consumed only when the run draws
    /// fault randomness).
    Fault = 2,
}

/// Shift positioning the kind tag above any realistic player-block
/// index in counter word 2: planes of different kinds can never
/// collide.
pub(crate) const KIND_SHIFT: u32 = 32;

/// Scalar stream-v3 replay: uniform `(kind, player)` of trial `trial`
/// in batch `batch`.
///
/// Uniform `(kind, p)` of trial `t` is word `p mod 4` of the block at
/// counter `[batch, t, kind · 2³² + p / 4, LANE_STREAM_DOMAIN]` — a
/// pure function of the key and the draw's own coordinates, so this
/// is bit-identical to what the engine's lane loop reads for trial
/// `t` at any lane width. This is what `load_stats` and the
/// invariance tests rebuild engine streams from — one block per call,
/// so it is replay-grade, not hot-loop-grade.
pub(crate) fn lane_draw(
    key: &CounterKey,
    batch: u64,
    trial: u64,
    kind: DrawKind,
    player: usize,
) -> f64 {
    let word2 = ((kind as u64) << KIND_SHIFT) | (player / 4) as u64;
    let block = threefry4x64(key, [batch, trial, word2, LANE_STREAM_DOMAIN]);
    word_to_unit(block[player % 4])
}

#[cfg(test)]
mod tests {
    use super::*;
    use decision::{ObliviousAlgorithm, SingleThresholdAlgorithm};
    use rand::SeedableRng;
    use rational::Rational;

    #[test]
    fn lane_kernels_agree_with_decide() {
        let threshold = ThresholdKernel::new(vec![0.25, 0.625, 1.0]);
        let oblivious = ObliviousKernel::new(vec![0.3, 0.75]);
        for &x in &[0.0, 0.2499, 0.25, 0.26, 0.625, 0.74, 0.75, 0.99] {
            for &c in &[0.0, 0.2999, 0.3, 0.5, 0.7499, 0.75, 1.0 - 1e-9] {
                for p in 0..3 {
                    assert_eq!(
                        threshold.sends_to_zero(p, x, c),
                        threshold.decide(p, x, c) == Bin::Zero
                    );
                }
                for p in 0..2 {
                    assert_eq!(
                        oblivious.sends_to_zero(p, x, c),
                        oblivious.decide(p, x, c) == Bin::Zero
                    );
                }
            }
        }
    }

    #[test]
    fn buffered_and_scalar_sources_share_one_stream() {
        let mut scalar = ScalarUniforms::from(StdRng::seed_from_u64(33));
        let mut buffered = BufferedUniforms::from(StdRng::seed_from_u64(33));
        // Cross several refill boundaries.
        for i in 0..(3 * CHUNK + 7) {
            assert_eq!(scalar.next_unit(), buffered.next_unit(), "draw {i}");
        }
    }

    #[test]
    fn sources_count_their_own_draws() {
        let mut scalar = ScalarUniforms::from(StdRng::seed_from_u64(5));
        let mut buffered = BufferedUniforms::from(StdRng::seed_from_u64(5));
        assert_eq!(scalar.draws(), 0);
        assert_eq!(buffered.draws(), 0);
        // A count that is not a multiple of CHUNK, crossing refills.
        let n = 2 * CHUNK as u64 + 17;
        for _ in 0..n {
            let _ = scalar.next_unit();
            let _ = buffered.next_unit();
        }
        assert_eq!(scalar.draws(), n);
        assert_eq!(buffered.draws(), n);
        assert_eq!(scalar.refills(), 0);
        assert_eq!(buffered.refills(), 3);
    }

    #[test]
    fn buffered_draw_count_is_exact_at_chunk_boundaries() {
        let mut buffered = BufferedUniforms::from(StdRng::seed_from_u64(8));
        for _ in 0..CHUNK {
            let _ = buffered.next_unit();
        }
        assert_eq!(buffered.draws(), CHUNK as u64);
        assert_eq!(buffered.refills(), 1);
        let _ = buffered.next_unit();
        assert_eq!(buffered.draws(), CHUNK as u64 + 1);
        assert_eq!(buffered.refills(), 2);
    }

    #[test]
    fn threshold_kernel_matches_rule_decisions() {
        let rule = SingleThresholdAlgorithm::new(vec![
            Rational::ratio(1, 4),
            Rational::ratio(5, 8),
            Rational::ratio(1, 1),
        ])
        .unwrap();
        let kernel = ThresholdKernel::new(rule.thresholds_f64());
        assert_eq!(kernel.players(), 3);
        for player in 0..3 {
            for x in [0.0, 0.2, 0.25, 0.26, 0.625, 0.99, 1.0] {
                assert_eq!(kernel.decide(player, x, 0.5), rule.decide(player, x, 0.5));
            }
        }
    }

    #[test]
    fn oblivious_kernel_matches_rule_decisions() {
        let rule =
            ObliviousAlgorithm::new(vec![Rational::ratio(1, 3), Rational::ratio(3, 4)]).unwrap();
        let kernel = ObliviousKernel::new(rule.probabilities_f64());
        assert_eq!(kernel.players(), 2);
        for player in 0..2 {
            for c in [0.0, 0.3, 1.0 / 3.0, 0.5, 0.75, 0.9] {
                assert_eq!(kernel.decide(player, 0.5, c), rule.decide(player, 0.5, c));
            }
        }
    }

    #[test]
    fn generic_kernel_forwards_to_the_rule() {
        let rule = ObliviousAlgorithm::fair(4);
        let kernel = GenericKernel(&rule);
        assert_eq!(kernel.players(), 4);
        assert_eq!(kernel.decide(0, 0.9, 0.1), rule.decide(0, 0.9, 0.1));
        // And through a trait object, exercising the dyn instantiation.
        let dynamic: &dyn decision::LocalRule = &rule;
        let kernel = GenericKernel(dynamic);
        assert_eq!(kernel.decide(1, 0.2, 0.8), rule.decide(1, 0.2, 0.8));
    }
}
