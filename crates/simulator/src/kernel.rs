//! Monomorphized decision kernels and the counter-addressed draw
//! layout: the building blocks of the engine's hot loop.
//!
//! A [`Kernel`] is the hot-loop view of a [`LocalRule`]: the decision
//! as a bool (`true` = bin 0) rather than a [`Bin`], taken on the
//! draws' lattice integers rather than on floats. Since stream v6
//! every draw is `u = v·2⁻³³` for an odd `v = 2h + 1 < 2³³`
//! ([`half_to_lattice`]), so a comparison of `u` against a real
//! parameter `x` is a comparison of `v` against an integer bound
//! computed once per run: `u ≤ x ⇔ v ≤ ⌊x·2³³⌋` ([`lattice_floor`]) and
//! `u < x ⇔ v < ⌈x·2³³⌉` ([`lattice_ceil`]). Scaling by `2³³` is exact
//! in `f64`, so each bound is the exact floor or ceiling and every
//! decision equals the float comparison it replaces. The lane loop
//! uses the decision to select each input into one of two `u64` bin
//! sums, without a branch per player.
//!
//! The batch runner is generic over the kernel, so the compiler emits
//! one specialized trial loop per kernel type with the decision
//! inlined — no virtual call and no `Rational → f64` conversion per
//! player per trial. The engine picks the kernel once per run from
//! [`decision::KernelHint`]; rules without a hint fall back to
//! [`GenericKernel`], which rebuilds the float draws (bit-identical
//! to [`half_to_unit`]) and calls [`LocalRule::decide`] per decision
//! on the same lane loop.
//!
//! Uniforms are addressed by `(batch, trial, kind, player)` on the
//! counter-based Threefry generator ([`DrawKind`],
//! [`LANE_STREAM_DOMAIN`]) — there is no sequential stream at all.
//! The engine's lane loop computes each counter block for `LANES`
//! trials at once and consumes its words in registers as it goes;
//! there is no uniform buffer. Each draw is a pure function of its
//! coordinates, so every lane width produces bit-identical results
//! by construction, and [`lane_draw`] replays any single draw (see
//! the engine module docs, stream versions v3–v7).
//!
//! [`half_to_lattice`]: rand::counter::half_to_lattice

use decision::{Bin, LocalRule};
use rand::counter::{half_to_unit, threefry4x64, CounterKey, LATTICE_SCALE};

/// The hot-loop view of a decision rule. Implementations must be
/// pure: `sends_to_zero` may depend only on its arguments and the
/// kernel's construction-time parameters, never on mutable state, and
/// must agree exactly with the rule's [`LocalRule::decide`] on the
/// draws `input·2⁻³³` and `coin·2⁻³³` — the kernel tests cross-check
/// this.
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

    /// True iff `player` sends its input to bin 0 when its input and
    /// coin are the draws with lattice integers `input` and `coin`.
    fn sends_to_zero(&self, player: usize, input: u64, coin: u64) -> bool;
}

/// `⌊x·2³³⌋`, saturated to `[0, u64::MAX]`: for every lattice integer
/// `v ≥ 1`, `v·2⁻³³ ≤ x ⇔ v ≤ lattice_floor(x)`, and for `v = 0` too
/// when `x ≥ 0`. A negative or NaN `x` maps to `0`, which no draw
/// passes but an empty sum (`v = 0`) would, so callers that compare
/// sums must accept only `x ≥ 0`.
pub(crate) fn lattice_floor(x: f64) -> u64 {
    (x * LATTICE_SCALE).floor() as u64
}

/// `⌈x·2³³⌉`, saturated to `[0, u64::MAX]`: for every lattice integer
/// `v ≥ 0`, `v·2⁻³³ < x ⇔ v < lattice_ceil(x)`, negative `x` and NaN
/// included (both map to `0`).
pub(crate) fn lattice_ceil(x: f64) -> u64 {
    (x * LATTICE_SCALE).ceil() as u64
}

/// The float draw `v·2⁻³³` of a lattice integer: exact, and equal bit
/// for bit to [`half_to_unit`] of the half `v` came from.
#[inline]
pub(crate) fn lattice_to_unit(v: u64) -> f64 {
    v as f64 / LATTICE_SCALE
}

/// The lattice integer of a float draw: the exact inverse of
/// [`lattice_to_unit`] on draws (the scaled value is an integer below
/// `2⁵³`). Scalar replays that read float draws with [`lane_draw`]
/// use it to feed a [`Kernel`].
pub(crate) fn unit_to_lattice(u: f64) -> u64 {
    (u * LATTICE_SCALE) as u64
}

/// Fast path for [`decision::SingleThresholdAlgorithm`]-shaped rules:
/// bin 0 iff `input ≤ thresholds[player]`, tested as
/// `v ≤ ⌊threshold·2³³⌋` with the bounds computed once per run.
pub(crate) struct ThresholdKernel {
    bounds: Vec<u64>,
}

impl ThresholdKernel {
    pub(crate) fn new(thresholds: Vec<f64>) -> ThresholdKernel {
        ThresholdKernel {
            bounds: thresholds.into_iter().map(lattice_floor).collect(),
        }
    }
}

impl Kernel for ThresholdKernel {
    const USES_COINS: bool = false;

    fn players(&self) -> usize {
        self.bounds.len()
    }

    #[inline]
    fn sends_to_zero(&self, player: usize, input: u64, _coin: u64) -> bool {
        input <= self.bounds[player]
    }
}

/// Fast path for [`decision::ObliviousAlgorithm`]-shaped rules: bin 0
/// iff `coin < alpha[player]`, tested as `v < ⌈alpha·2³³⌉` with the
/// bounds computed once per run.
pub(crate) struct ObliviousKernel {
    bounds: Vec<u64>,
}

impl ObliviousKernel {
    pub(crate) fn new(alpha: Vec<f64>) -> ObliviousKernel {
        ObliviousKernel {
            bounds: alpha.into_iter().map(lattice_ceil).collect(),
        }
    }
}

impl Kernel for ObliviousKernel {
    const USES_COINS: bool = true;

    fn players(&self) -> usize {
        self.bounds.len()
    }

    #[inline]
    fn sends_to_zero(&self, player: usize, _input: u64, coin: u64) -> bool {
        coin < self.bounds[player]
    }
}

/// Fallback kernel for [`decision::KernelHint::Opaque`] rules: one
/// [`LocalRule::decide`] call per decision on the rebuilt float draws,
/// monomorphized over `R` when the rule type is concrete and a
/// virtual call for `R = dyn LocalRule`. An opaque rule may read its
/// coin, so the coin plane is always generated.
pub(crate) struct GenericKernel<'a, R: LocalRule + ?Sized>(pub(crate) &'a R);

impl<R: LocalRule + ?Sized> Kernel for GenericKernel<'_, R> {
    const USES_COINS: bool = true;

    fn players(&self) -> usize {
        self.0.n()
    }

    #[inline]
    fn sends_to_zero(&self, player: usize, input: u64, coin: u64) -> bool {
        self.0
            .decide(player, lattice_to_unit(input), lattice_to_unit(coin))
            == Bin::Zero
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

/// Uniforms per Threefry block and plane (since stream v6): four 64-bit
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
    use rand::counter::half_to_lattice;
    use rational::Rational;

    /// An odd lattice integer in mid-range: a reachable draw.
    const V0: i64 = 0x1_2345_6789;

    /// `2³³`, the lattice scale as an integer.
    const SCALE: i64 = 1 << 33;

    /// Parameters on the lattice edges around the draw `V0·2⁻³³`:
    /// exactly on it, one step `2⁻³³` either side (between two draws)
    /// and half a step either side (where `⌊·⌋` and `⌈·⌉` differ),
    /// plus dyadic and non-dyadic interior values and both ends.
    fn edge_parameters() -> Vec<Rational> {
        vec![
            Rational::ratio(V0, SCALE),
            Rational::ratio(V0 - 1, SCALE),
            Rational::ratio(V0 + 1, SCALE),
            Rational::ratio(2 * V0 - 1, 2 * SCALE),
            Rational::ratio(2 * V0 + 1, 2 * SCALE),
            Rational::ratio(1, 4),
            Rational::ratio(1, 3),
            Rational::ratio(5, 8),
            Rational::zero(),
            Rational::one(),
        ]
    }

    /// The odd lattice integers within four steps of each boundary's
    /// `x·2³³`, plus the two smallest and two largest draws.
    fn draws_around(boundaries: &[f64]) -> Vec<u64> {
        let top = (1u64 << 33) - 1;
        let mut draws = vec![1, 3, top - 2, top];
        for &x in boundaries {
            let centre = (x * LATTICE_SCALE).floor() as i64;
            draws.extend(
                (centre - 4..=centre + 4)
                    .filter(|v| v % 2 == 1 && (1..=top as i64).contains(v))
                    .map(|v| v as u64),
            );
        }
        draws
    }

    /// Asserts `kernel` sends exactly the draws `rule` puts in bin 0,
    /// for every input and coin draw straddling each of `boundaries`.
    fn assert_matches_rule<K: Kernel>(kernel: &K, rule: &dyn LocalRule, boundaries: &[f64]) {
        assert_eq!(kernel.players(), rule.n());
        let draws = draws_around(boundaries);
        for &x in &draws {
            for &c in &draws {
                for p in 0..rule.n() {
                    let (input, coin) = (lattice_to_unit(x), lattice_to_unit(c));
                    assert_eq!(
                        kernel.sends_to_zero(p, x, c),
                        rule.decide(p, input, coin) == Bin::Zero,
                        "player {p}, input {input} (v = {x}), coin {coin} (v = {c})"
                    );
                }
            }
        }
    }

    #[test]
    fn threshold_kernel_matches_rule_decisions() {
        let rule = SingleThresholdAlgorithm::new(edge_parameters()).unwrap();
        let thresholds = rule.thresholds_f64();
        assert_matches_rule(
            &ThresholdKernel::new(thresholds.clone()),
            &rule,
            &thresholds,
        );
    }

    #[test]
    fn oblivious_kernel_matches_rule_decisions() {
        let rule = ObliviousAlgorithm::new(edge_parameters()).unwrap();
        let alpha = rule.probabilities_f64();
        assert_matches_rule(&ObliviousKernel::new(alpha.clone()), &rule, &alpha);
    }

    #[test]
    fn generic_kernel_forwards_to_the_rule() {
        let rule = ObliviousAlgorithm::new(edge_parameters()).unwrap();
        let alpha = rule.probabilities_f64();
        assert_matches_rule(&GenericKernel(&rule), &rule, &alpha);
        // And through a trait object, exercising the dyn instantiation.
        let dynamic: &dyn LocalRule = &rule;
        assert_matches_rule(&GenericKernel(dynamic), &rule, &alpha);
        let rule = SingleThresholdAlgorithm::new(edge_parameters()).unwrap();
        let thresholds = rule.thresholds_f64();
        assert_matches_rule(&GenericKernel(&rule), &rule, &thresholds);
    }

    #[test]
    fn lattice_bounds_are_exact_floors_and_ceilings() {
        let step = 1.0 / LATTICE_SCALE;
        let on = V0 as f64 * step;
        let v0 = V0 as u64;
        // On a draw, a step either side of it, and half a step either
        // side, where the floor and the ceiling differ.
        assert_eq!((lattice_floor(on), lattice_ceil(on)), (v0, v0));
        assert_eq!(lattice_floor(on - step), v0 - 1);
        assert_eq!(lattice_ceil(on + step), v0 + 1);
        assert_eq!(
            (
                lattice_floor(on - step / 2.0),
                lattice_ceil(on - step / 2.0)
            ),
            (v0 - 1, v0)
        );
        assert_eq!(
            (
                lattice_floor(on + step / 2.0),
                lattice_ceil(on + step / 2.0)
            ),
            (v0, v0 + 1)
        );
        // Ends of the unit interval and saturation outside it: no
        // draw lies at or below a negative bound, every draw lies
        // below a huge one.
        assert_eq!((lattice_floor(0.0), lattice_ceil(0.0)), (0, 0));
        assert_eq!((lattice_floor(1.0), lattice_ceil(1.0)), (1 << 33, 1 << 33));
        assert_eq!((lattice_floor(-0.5), lattice_ceil(-0.5)), (0, 0));
        assert_eq!(
            (lattice_floor(-step / 2.0), lattice_ceil(-step / 2.0)),
            (0, 0)
        );
        assert_eq!((lattice_floor(f64::NAN), lattice_ceil(f64::NAN)), (0, 0));
        assert_eq!(lattice_floor(f64::INFINITY), u64::MAX);
        assert_eq!(lattice_ceil(1e300), u64::MAX);
    }

    #[test]
    fn lattice_conversions_round_trip_on_every_draw_shape() {
        let key = CounterKey::from_seed(29);
        for ctr in 0..2_000u64 {
            for word in threefry4x64(&key, [ctr, 0, 0, 0]) {
                for half in 0..2 {
                    let v = half_to_lattice(word, half);
                    let u = half_to_unit(word, half);
                    assert_eq!(lattice_to_unit(v), u, "word {word:#x} half {half}");
                    assert_eq!(unit_to_lattice(u), v, "word {word:#x} half {half}");
                }
            }
        }
    }
}
