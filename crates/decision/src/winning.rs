//! Winning probabilities: Theorem 4.1 (oblivious) and Theorem 5.1
//! (single-threshold).
//!
//! Each theorem is implemented exactly once, generically over
//! [`Scalar`] ([`winning_probability_oblivious_in`],
//! [`winning_probability_threshold_in`]); the exact [`Rational`] API
//! and the `*_f64` fast path are thin instantiation wrappers. The
//! generic cores take a [`EvalContext`] so sweeps and optimizers can
//! reuse the per-`(n, δ)` Irwin–Hall tables and binomial rows across
//! evaluations.
//!
//! The symmetric closed forms have no player cap of their own: in
//! `f64` and `Ball` their Irwin–Hall factors come from the positive
//! B-spline recurrence ([`uniform_sums::irwin_hall_row`]), accurate
//! to a few ulps at every order measured (up to 128), and in
//! `Rational` from the exact alternating sum. Callers bound the work
//! (the query daemon refuses more than 128 players).

use crate::{Capacity, ModelError, ObliviousAlgorithm, SingleThresholdAlgorithm};
use rational::{Rational, Scalar};
use uniform_sums::{
    box_sum_cdf_in, irwin_hall_cdf_in, irwin_hall_cdf_row, shifted_box_sum_cdf_in, EvalContext,
};

/// Largest player count for which the `2^n` enumeration over decision
/// vectors is attempted.
pub(crate) const MAX_EXACT_PLAYERS: usize = 22;

/// Largest player count for which the asymmetric single-threshold
/// enumeration is attempted. Each of its `2^n` terms evaluates two
/// box-sum CDFs with inclusion–exclusion over their own subsets, so
/// the cost grows about 3x per player: a cold `f64` evaluation takes
/// ~40 ms at n = 14, ~0.4 s at 16 and ~3.3 s at 18 on a 2-vCPU VM.
/// Capping at 14 keeps every served asymmetric `pwin` in the tens of
/// milliseconds.
pub const MAX_EXACT_THRESHOLD_PLAYERS: usize = 14;

/// Winning probability of an oblivious algorithm (Theorem 4.1), in
/// any [`Scalar`] instantiation:
///
/// ```text
/// P_A(δ) = Σ_{b ∈ {0,1}^n} F_{|b₀|}(δ) · F_{|b₁|}(δ) · Π_i α_i^(b_i)
/// ```
///
/// where `F_m` is the Irwin–Hall CDF of `m` standard uniforms and
/// `|b₀|`, `|b₁|` count the players in each bin. The symmetric
/// (all-equal `α`) case collapses to a sum over bin sizes; the
/// asymmetric case enumerates all `2^n` decision vectors. The
/// Irwin–Hall table `F_0(δ), …, F_n(δ)` comes from `ctx`, so a sweep
/// at fixed `δ` computes it once.
///
/// # Errors
///
/// Returns [`ModelError::TooFewPlayers`] for fewer than 2 players and
/// [`ModelError::TooManyPlayersForExact`] if an asymmetric vector has
/// more than 22 players.
pub fn winning_probability_oblivious_in<S: Scalar>(
    ctx: &mut EvalContext<S>,
    alpha: &[S],
    delta: &S,
) -> Result<S, ModelError> {
    let n = alpha.len();
    if n < 2 {
        return Err(ModelError::TooFewPlayers { n });
    }
    let symmetric = alpha.windows(2).all(|w| w[0] == w[1]);
    if !symmetric && n > MAX_EXACT_PLAYERS {
        return Err(ModelError::TooManyPlayersForExact {
            n,
            max: MAX_EXACT_PLAYERS,
        });
    }
    // Irwin-Hall CDF per possible bin size, served by the context.
    let ih = ctx.irwin_hall_cdf_table(n as u32, delta);

    if symmetric {
        let a = &alpha[0];
        let beta = S::one() - a.clone();
        // Sum over k = number of players in bin 0.
        let mut total = S::zero();
        for k in 0..=n {
            let ways = ctx.binomial(n as u32, k as u32);
            let prob = a.powi(k as u32) * beta.powi((n - k) as u32);
            total = total + ways * prob * ih[k].clone() * ih[n - k].clone();
        }
        S::ensure_probability(&total);
        return Ok(total);
    }

    let mut total = S::zero();
    for mask in 0u32..(1u32 << n) {
        // Bit i set means player i chooses bin 1.
        let mut prob = S::one();
        for (i, a) in alpha.iter().enumerate() {
            prob = prob
                * if mask >> i & 1 == 1 {
                    S::one() - a.clone()
                } else {
                    a.clone()
                };
        }
        if prob.is_zero() {
            continue;
        }
        let ones = mask.count_ones() as usize;
        total = total + prob * ih[n - ones].clone() * ih[ones].clone();
    }
    S::ensure_probability(&total);
    Ok(total)
}

/// Exact winning probability of an oblivious algorithm: the
/// [`Rational`] instantiation of [`winning_probability_oblivious_in`]
/// with a throwaway context.
///
/// # Errors
///
/// Returns [`ModelError::TooManyPlayersForExact`] if an asymmetric
/// algorithm has more than 22 players.
///
/// # Examples
///
/// ```
/// use decision::{winning_probability_oblivious, Capacity, ObliviousAlgorithm};
/// use rational::Rational;
///
/// // Two players, fair coins, δ = 1.
/// let p = winning_probability_oblivious(
///     &ObliviousAlgorithm::fair(2),
///     &Capacity::unit(),
/// ).unwrap();
/// assert_eq!(p, Rational::ratio(3, 4));
/// ```
pub fn winning_probability_oblivious(
    algo: &ObliviousAlgorithm,
    capacity: &Capacity,
) -> Result<Rational, ModelError> {
    let mut ctx = EvalContext::new();
    winning_probability_oblivious_in(&mut ctx, algo.probabilities(), capacity.value())
}

/// Fast `f64` version of [`winning_probability_oblivious`]: the float
/// instantiation of [`winning_probability_oblivious_in`].
///
/// # Errors
///
/// Returns [`ModelError`] on fewer than 2 players, or on an
/// asymmetric vector of more than 22 players (the symmetric
/// collapsed form has no such cap).
// xtask:allow(no-twin-f64): instantiation wrapper over the generic core
pub fn winning_probability_oblivious_f64(alpha: &[f64], delta: f64) -> Result<f64, ModelError> {
    let mut ctx = EvalContext::new();
    winning_probability_oblivious_in(&mut ctx, alpha, &delta)
}

/// Winning probability of a single-threshold algorithm
/// (Theorem 5.1), in any [`Scalar`] instantiation. For each decision
/// vector `b`, the inputs of the players in bin 0 are conditionally
/// `U[0, a_i]` and those in bin 1 are `U[a_i, 1]`, so
///
/// ```text
/// P_A(δ) = Σ_b P(y = b) · F_{Σ U[0,a_i], i∈b₀}(δ) · F_{Σ U[a_i,1], i∈b₁}(δ)
/// ```
///
/// with `P(y = b) = Π_{i∈b₀} a_i · Π_{i∈b₁} (1 − a_i)` and the two
/// conditional CDFs given by Lemmas 2.4 and 2.7
/// ([`box_sum_cdf_in`] and [`shifted_box_sum_cdf_in`]).
///
/// The symmetric (all-equal) case collapses to a sum over bin sizes
/// (`n + 1` terms): the bin-0 factors `F_k(δ/β)` share one argument
/// and come from one Irwin–Hall row, the bin-1 factors take one
/// evaluation per `k` (`O(n³)` work in `f64` at worst). The
/// asymmetric case enumerates all `2^n` decision vectors. Binomial
/// weights are served by `ctx`.
///
/// # Errors
///
/// Returns [`ModelError::TooFewPlayers`] for fewer than 2 players and
/// [`ModelError::TooManyPlayersForExact`] if an asymmetric vector has
/// more than [`MAX_EXACT_THRESHOLD_PLAYERS`] players.
pub fn winning_probability_threshold_in<S: Scalar>(
    ctx: &mut EvalContext<S>,
    thresholds: &[S],
    delta: &S,
) -> Result<S, ModelError> {
    let n = thresholds.len();
    if n < 2 {
        return Err(ModelError::TooFewPlayers { n });
    }
    let symmetric = thresholds.windows(2).all(|w| w[0] == w[1]);
    if symmetric {
        // Equal thresholds collapse both conditional box sums to
        // scaled Irwin–Hall CDFs (Corollary 2.6): Σ_k U[0, β] has
        // CDF F_k(δ/β), and the bin-1 sum of n−k draws from U[β, 1]
        // shifts by (n−k)β with equal widths 1 − β. Grouping the
        // inclusion–exclusion subsets by size is exact — identical
        // values in every instantiation — and turns the subset
        // enumeration into O(n) work per bin size, so symmetric
        // systems scale far past the asymmetric cap.
        let beta = &thresholds[0];
        let one_minus = S::one() - beta.clone();
        // The bin-0 factors F_k(δ/β) share one argument, so one row
        // serves every k. (At β = 0 only k = 0 has positive
        // probability; its factor is 1 either way.)
        let bin0 = if beta.is_zero() {
            vec![S::one(); n + 1]
        } else {
            irwin_hall_cdf_row(n as u32, &(delta.clone() / beta.clone()))
        };
        let mut total = S::zero();
        for (k, f0) in bin0.into_iter().enumerate() {
            // k players in bin 0, n-k in bin 1.
            let ways = ctx.binomial(n as u32, k as u32);
            let mut prob = S::one();
            for _ in 0..k {
                prob = prob * beta.clone();
            }
            for _ in k..n {
                prob = prob * one_minus.clone();
            }
            // Non-zero `prob` guarantees β < 1 whenever bin 1 is
            // occupied, so the scale division below is sound.
            if prob.is_zero() || f0.is_zero() {
                continue;
            }
            let f1 = if k == n {
                S::one()
            } else {
                // n−k draws from U[β, 1]: offset (n−k)β, widths 1−β.
                let offset = S::from_int((n - k) as i64) * beta.clone();
                let scaled = (delta.clone() - offset) / one_minus.clone();
                irwin_hall_cdf_in((n - k) as u32, &scaled)
            };
            total = total + ways * prob * f0 * f1;
        }
        S::ensure_probability(&total);
        return Ok(total);
    }
    if n > MAX_EXACT_THRESHOLD_PLAYERS {
        return Err(ModelError::TooManyPlayersForExact {
            n,
            max: MAX_EXACT_THRESHOLD_PLAYERS,
        });
    }
    let mut total = S::zero();
    let mut bin0 = Vec::with_capacity(n);
    let mut bin1 = Vec::with_capacity(n);
    for mask in 0u32..(1u32 << n) {
        bin0.clear();
        bin1.clear();
        for (i, a) in thresholds.iter().enumerate() {
            if mask >> i & 1 == 0 {
                bin0.push(a.clone());
            } else {
                bin1.push(a.clone());
            }
        }
        total = total + joint_term_in(&bin0, &bin1, delta);
    }
    S::ensure_probability(&total);
    Ok(total)
}

/// Exact winning probability of a single-threshold algorithm: the
/// [`Rational`] instantiation of [`winning_probability_threshold_in`]
/// with a throwaway context.
///
/// # Errors
///
/// Returns [`ModelError::TooManyPlayersForExact`] if an asymmetric
/// algorithm has more than [`MAX_EXACT_THRESHOLD_PLAYERS`] players.
///
/// # Examples
///
/// ```
/// use decision::{winning_probability_threshold, Capacity, SingleThresholdAlgorithm};
/// use rational::Rational;
///
/// // n = 3, δ = 1, β = 1/2 lies on the paper's curve 1/6 + 3β²/2 − β³/2.
/// let a = SingleThresholdAlgorithm::symmetric(3, Rational::ratio(1, 2)).unwrap();
/// let p = winning_probability_threshold(&a, &Capacity::unit()).unwrap();
/// assert_eq!(p, Rational::ratio(23, 48));
/// ```
pub fn winning_probability_threshold(
    algo: &SingleThresholdAlgorithm,
    capacity: &Capacity,
) -> Result<Rational, ModelError> {
    let mut ctx = EvalContext::new();
    winning_probability_threshold_in(&mut ctx, algo.thresholds(), capacity.value())
}

/// One decision-vector term of Theorem 5.1:
/// `P(y=b) · P(Σ₀ ≤ δ | b) · P(Σ₁ ≤ δ | b)`.
fn joint_term_in<S: Scalar>(bin0: &[S], bin1: &[S], delta: &S) -> S {
    // P(y = b): players in bin 0 had x_i <= a_i, players in bin 1 had x_i > a_i.
    let mut prob = S::one();
    for a in bin0 {
        prob = prob * a.clone();
    }
    for a in bin1 {
        prob = prob * (S::one() - a.clone());
    }
    if prob.is_zero() {
        return S::zero();
    }
    // Conditional overflow-free probabilities. Non-zero `prob`
    // guarantees a_i > 0 in bin 0 and a_i < 1 in bin 1, so the
    // bin widths below are strictly positive.
    let f0 = if bin0.is_empty() {
        S::one()
    } else {
        box_sum_cdf_in(bin0, delta)
    };
    if f0.is_zero() {
        return S::zero();
    }
    let f1 = if bin1.is_empty() {
        S::one()
    } else {
        // Lemma 2.7: U[a_i, 1] = a_i + U[0, 1 − a_i].
        let mut offset = S::zero();
        let mut widths = Vec::with_capacity(bin1.len());
        for a in bin1 {
            offset = offset + a.clone();
            widths.push(S::one() - a.clone());
        }
        shifted_box_sum_cdf_in(&widths, &offset, delta)
    };
    prob * f0 * f1
}

/// Fast `f64` version of [`winning_probability_threshold`]: the float
/// instantiation of [`winning_probability_threshold_in`].
///
/// # Errors
///
/// Returns [`ModelError`] on fewer than 2 players or on an asymmetric
/// vector of more than [`MAX_EXACT_THRESHOLD_PLAYERS`] players (the
/// symmetric collapsed form has no such cap).
// xtask:allow(no-twin-f64): instantiation wrapper over the generic core
pub fn winning_probability_threshold_f64(
    thresholds: &[f64],
    delta: f64,
) -> Result<f64, ModelError> {
    let mut ctx = EvalContext::new();
    winning_probability_threshold_in(&mut ctx, thresholds, &delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rational {
        Rational::ratio(n, d)
    }

    fn cap(n: i64, d: i64) -> Capacity {
        Capacity::new(r(n, d)).unwrap()
    }

    #[test]
    fn two_player_fair_oblivious_hand_computed() {
        // b in {00, 01, 10, 11} each with prob 1/4.
        // Same-bin vectors: F_2(1) = 1/2; split vectors: F_1(1)^2 = 1.
        // P = 2*(1/4)*(1/2) + 2*(1/4)*1 = 3/4.
        let p =
            winning_probability_oblivious(&ObliviousAlgorithm::fair(2), &Capacity::unit()).unwrap();
        assert_eq!(p, r(3, 4));
    }

    #[test]
    fn oblivious_symmetric_and_enumerated_paths_agree() {
        for n in 2..=5usize {
            for (num, den) in [(1i64, 2i64), (1, 3), (2, 3)] {
                let sym = ObliviousAlgorithm::symmetric(n, r(num, den)).unwrap();
                let manual =
                    ObliviousAlgorithm::new((0..n).map(|_| r(num, den)).collect()).unwrap();
                let delta = cap(1, 1);
                let a = winning_probability_oblivious(&sym, &delta).unwrap();
                let b = enumerate_oblivious(&manual, &delta);
                assert_eq!(a, b, "n={n}, alpha={num}/{den}");
            }
        }
    }

    /// Bitmask enumeration regardless of symmetry, for cross-checking.
    fn enumerate_oblivious(algo: &ObliviousAlgorithm, capacity: &Capacity) -> Rational {
        let n = algo.n();
        let ih: Vec<Rational> = (0..=n)
            .map(|m| uniform_sums::irwin_hall_cdf(m as u32, capacity.value()))
            .collect();
        let mut total = Rational::zero();
        for mask in 0u32..(1 << n) {
            let mut prob = Rational::one();
            for (i, a) in algo.probabilities().iter().enumerate() {
                prob *= if mask >> i & 1 == 1 {
                    Rational::one() - a
                } else {
                    a.clone()
                };
            }
            let ones = mask.count_ones() as usize;
            total += prob * &ih[n - ones] * &ih[ones];
        }
        total
    }

    #[test]
    fn deterministic_oblivious_extremes() {
        // All players always choose bin 0: P = F_n(δ).
        for n in 2..=5usize {
            let all_zero = ObliviousAlgorithm::symmetric(n, Rational::one()).unwrap();
            let delta = cap(1, 1);
            let p = winning_probability_oblivious(&all_zero, &delta).unwrap();
            assert_eq!(p, uniform_sums::irwin_hall_cdf(n as u32, delta.value()));
        }
    }

    #[test]
    fn shared_context_is_reused_across_a_sweep() {
        // Eleven α values at fixed δ: one Irwin-Hall table, ten hits.
        let mut ctx = EvalContext::<Rational>::new();
        let delta = Rational::one();
        for k in 0..=10i64 {
            let alpha = vec![r(k, 10); 4];
            let with_ctx = winning_probability_oblivious_in(&mut ctx, &alpha, &delta).unwrap();
            let algo = ObliviousAlgorithm::new(alpha).unwrap();
            let fresh = winning_probability_oblivious(&algo, &Capacity::unit()).unwrap();
            assert_eq!(with_ctx, fresh, "alpha = {k}/10");
        }
        assert_eq!(ctx.hits(), 10);
    }

    #[test]
    fn threshold_symmetric_matches_paper_cubic_n3() {
        // Paper 5.2.1: for β ≤ 1/2, P(β) = 1/6 + 3β²/2 − β³/2.
        for (num, den) in [(1i64, 4i64), (1, 3), (2, 5), (1, 2)] {
            let beta = r(num, den);
            let algo = SingleThresholdAlgorithm::symmetric(3, beta.clone()).unwrap();
            let p = winning_probability_threshold(&algo, &Capacity::unit()).unwrap();
            let expected = r(1, 6) + r(3, 2) * beta.pow(2) - r(1, 2) * beta.pow(3);
            assert_eq!(p, expected, "beta = {beta}");
        }
    }

    #[test]
    fn threshold_symmetric_matches_paper_cubic_n3_upper() {
        // Paper 5.2.1: for β > 1/2, P(β) = −11/6 + 9β − 21β²/2 + 7β³/2.
        for (num, den) in [(5i64, 8i64), (3, 4), (9, 10), (1, 1)] {
            let beta = r(num, den);
            let algo = SingleThresholdAlgorithm::symmetric(3, beta.clone()).unwrap();
            let p = winning_probability_threshold(&algo, &Capacity::unit()).unwrap();
            let expected =
                r(-11, 6) + r(9, 1) * beta.clone() - r(21, 2) * beta.pow(2) + r(7, 2) * beta.pow(3);
            assert_eq!(p, expected, "beta = {beta}");
        }
    }

    #[test]
    fn threshold_asymmetric_agrees_with_symmetric_path() {
        let beta = r(3, 5);
        let sym = SingleThresholdAlgorithm::symmetric(4, beta.clone()).unwrap();
        let manual =
            SingleThresholdAlgorithm::new(vec![beta.clone(), beta.clone(), beta.clone(), beta])
                .unwrap();
        let delta = cap(4, 3);
        let a = winning_probability_threshold(&sym, &delta).unwrap();
        // manual is also symmetric, so force enumeration manually.
        let b = {
            let n = manual.n();
            let mut total = Rational::zero();
            for mask in 0u32..(1 << n) {
                let bin0: Vec<Rational> = (0..n)
                    .filter(|i| mask >> i & 1 == 0)
                    .map(|i| manual.thresholds()[i].clone())
                    .collect();
                let bin1: Vec<Rational> = (0..n)
                    .filter(|i| mask >> i & 1 == 1)
                    .map(|i| manual.thresholds()[i].clone())
                    .collect();
                total += super::joint_term_in(&bin0, &bin1, delta.value());
            }
            total
        };
        assert_eq!(a, b);
    }

    #[test]
    fn degenerate_thresholds_zero_and_one() {
        // a = (0, 1): player 0 always bin 1, player 1 always bin 0.
        // Each bin holds one U[0,1] input, δ=1 -> always wins.
        let algo = SingleThresholdAlgorithm::new(vec![r(0, 1), r(1, 1)]).unwrap();
        let p = winning_probability_threshold(&algo, &Capacity::unit()).unwrap();
        assert_eq!(p, Rational::one());
        // a = (1, 1): both always bin 0, so P = F_2(1) restricted to
        // x_i <= 1 (always true) = 1/2.
        let both = SingleThresholdAlgorithm::new(vec![r(1, 1), r(1, 1)]).unwrap();
        let p2 = winning_probability_threshold(&both, &Capacity::unit()).unwrap();
        assert_eq!(p2, r(1, 2));
    }

    #[test]
    fn capacity_at_least_n_always_wins() {
        // δ >= n means no overflow is possible.
        for n in 2..=5usize {
            let algo = SingleThresholdAlgorithm::symmetric(n, r(1, 3)).unwrap();
            let p = winning_probability_threshold(&algo, &cap(n as i64, 1)).unwrap();
            assert_eq!(p, Rational::one(), "n = {n}");
        }
    }

    #[test]
    fn threshold_beats_oblivious_n3_delta1_at_optimum() {
        // Non-obliviousness helps: compare β = 0.622... region value
        // against the oblivious optimum at the same δ.
        let delta = Capacity::unit();
        let ob = winning_probability_oblivious(&ObliviousAlgorithm::fair(3), &delta).unwrap();
        let th = winning_probability_threshold(
            &SingleThresholdAlgorithm::symmetric(3, r(622, 1000)).unwrap(),
            &delta,
        )
        .unwrap();
        assert!(th > ob, "threshold {th} should beat oblivious {ob}");
    }

    #[test]
    fn undersized_systems_are_rejected() {
        let mut ctx = EvalContext::<f64>::new();
        assert!(matches!(
            winning_probability_threshold_in(&mut ctx, &[0.5], &1.0),
            Err(ModelError::TooFewPlayers { n: 1 })
        ));
        assert!(matches!(
            winning_probability_oblivious_in(&mut ctx, &[0.5], &1.0),
            Err(ModelError::TooFewPlayers { n: 1 })
        ));
    }

    #[test]
    fn asymmetric_thresholds_stop_at_their_enumeration_cap() {
        let spread = |n: usize| -> Vec<f64> { (0..n).map(|i| 0.5 + 0.01 * i as f64).collect() };
        let mut ctx = EvalContext::<f64>::new();
        let at_cap = spread(MAX_EXACT_THRESHOLD_PLAYERS);
        assert!(winning_probability_threshold_in(&mut ctx, &at_cap, &4.0).is_ok());
        for n in [MAX_EXACT_THRESHOLD_PLAYERS + 1, 24] {
            assert!(matches!(
                winning_probability_threshold_in(&mut ctx, &spread(n), &4.0),
                Err(ModelError::TooManyPlayersForExact { max: 14, .. })
            ));
        }
        // The symmetric collapsed form has no enumeration cap.
        let delta = 128.0 / 3.0;
        assert!(winning_probability_threshold_in(&mut ctx, &[0.6; 128], &delta).is_ok());
    }

    #[test]
    fn symmetric_closed_forms_answer_up_to_128_players() {
        // Past order 39 the alternating Irwin–Hall sum left PROB_EPS in
        // f64, and at n = 200 its power terms overflowed into NaN; the
        // positive recurrence answers every order. The f64 value must
        // sit inside the Ball enclosure of the same closed form.
        let mut floats = EvalContext::<f64>::new();
        let mut balls = EvalContext::<rational::Ball>::new();
        for n in [40usize, 64, 100, 128, 200] {
            let delta = n as f64 / 3.0;
            let float = winning_probability_threshold_in(&mut floats, &vec![0.6; n], &delta)
                .expect("symmetric threshold");
            let ball = winning_probability_threshold_in(
                &mut balls,
                &vec![rational::Ball::point(0.6); n],
                &rational::Ball::point(delta),
            )
            .expect("symmetric threshold enclosure");
            let eps = contracts::tolerances::PROB_EPS;
            assert!(ball.width() < 1e-12, "n = {n}: enclosure {ball:?}");
            assert!(
                ball.lo() - eps <= float && float <= ball.hi() + eps,
                "n = {n}: {float} outside {ball:?}"
            );
            let oblivious =
                winning_probability_oblivious_in(&mut floats, &vec![0.5; n], &delta).unwrap();
            assert!((0.0..=1.0).contains(&oblivious), "n = {n}: {oblivious}");
        }
        // The exact instantiation agrees at a size it can afford.
        let exact = winning_probability_threshold_in(
            &mut EvalContext::<Rational>::new(),
            &vec![Rational::ratio(3, 5); 40],
            &Rational::ratio(40, 3),
        )
        .unwrap()
        .to_f64();
        let float = winning_probability_threshold_in(&mut floats, &[0.6; 40], &(40.0 / 3.0));
        assert!((float.unwrap() - exact).abs() < contracts::tolerances::PROB_EPS);
    }
}
