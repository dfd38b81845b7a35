//! Property tests for the decision core: probability axioms,
//! symmetry, monotonicity in capacity, and agreement between the
//! symbolic and direct pipelines.

use decision::{
    oblivious, symmetric, winning_probability_oblivious, winning_probability_oblivious_f64,
    winning_probability_oblivious_in, winning_probability_threshold,
    winning_probability_threshold_f64, winning_probability_threshold_in, Capacity, EvalContext,
    ObliviousAlgorithm, SingleThresholdAlgorithm,
};
use proptest::prelude::*;
use rational::{Ball, Rational};

fn unit_rational() -> impl Strategy<Value = Rational> {
    (0i64..=12, 12i64..=12).prop_map(|(n, d)| Rational::ratio(n, d))
}

fn capacity() -> impl Strategy<Value = Capacity> {
    (1i64..9, 1i64..4).prop_map(|(n, d)| Capacity::new(Rational::ratio(n, d)).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn oblivious_probability_in_unit_interval(
        alpha in proptest::collection::vec(unit_rational(), 2..6),
        cap in capacity(),
    ) {
        let algo = ObliviousAlgorithm::new(alpha).unwrap();
        let p = winning_probability_oblivious(&algo, &cap).unwrap();
        prop_assert!(!p.is_negative() && p <= Rational::one());
    }

    #[test]
    fn threshold_probability_in_unit_interval(
        a in proptest::collection::vec(unit_rational(), 2..6),
        cap in capacity(),
    ) {
        let algo = SingleThresholdAlgorithm::new(a).unwrap();
        let p = winning_probability_threshold(&algo, &cap).unwrap();
        prop_assert!(!p.is_negative() && p <= Rational::one());
    }

    #[test]
    fn winning_probability_monotone_in_capacity(
        a in proptest::collection::vec(unit_rational(), 2..5),
        cap in capacity(),
    ) {
        let algo = SingleThresholdAlgorithm::new(a).unwrap();
        let bigger = Capacity::new(cap.value() + Rational::ratio(1, 3)).unwrap();
        let p1 = winning_probability_threshold(&algo, &cap).unwrap();
        let p2 = winning_probability_threshold(&algo, &bigger).unwrap();
        prop_assert!(p2 >= p1);
    }

    #[test]
    fn permuting_players_preserves_probability(
        a in proptest::collection::vec(unit_rational(), 3..6),
        cap in capacity(),
    ) {
        let algo = SingleThresholdAlgorithm::new(a.clone()).unwrap();
        let mut rotated = a;
        rotated.rotate_left(1);
        let algo_rot = SingleThresholdAlgorithm::new(rotated).unwrap();
        prop_assert_eq!(
            winning_probability_threshold(&algo, &cap).unwrap(),
            winning_probability_threshold(&algo_rot, &cap).unwrap()
        );
    }

    #[test]
    fn complementing_thresholds_preserves_probability(
        a in proptest::collection::vec(unit_rational(), 2..5),
        cap in capacity(),
    ) {
        // Swapping the roles of the two bins: a_i -> 1 - a_i changes
        // which bin collects small inputs, but the bins are
        // interchangeable... only when the decision regions mirror.
        // For the oblivious family this is exact: α -> 1 - α.
        let algo = ObliviousAlgorithm::new(a.clone()).unwrap();
        let flipped = ObliviousAlgorithm::new(
            a.iter().map(|x| Rational::one() - x).collect()
        ).unwrap();
        prop_assert_eq!(
            winning_probability_oblivious(&algo, &cap).unwrap(),
            winning_probability_oblivious(&flipped, &cap).unwrap()
        );
    }

    // The two instantiations of the generic core agree everywhere:
    // for random systems of up to 8 players and random capacities,
    // the exact-rational and f64 pipelines compute the same winning
    // probability within the workspace float tolerance. This single
    // property subsumes the per-module exact-vs-numeric spot checks.
    #[test]
    fn f64_paths_track_exact_everywhere(
        a in proptest::collection::vec(unit_rational(), 2..9),
        cap in capacity(),
    ) {
        let eps = contracts::tolerances::PROB_EPS;
        let af: Vec<f64> = a.iter().map(Rational::to_f64).collect();
        let algo_t = SingleThresholdAlgorithm::new(a.clone()).unwrap();
        let exact_t = winning_probability_threshold(&algo_t, &cap).unwrap().to_f64();
        let fast_t = winning_probability_threshold_f64(&af, cap.to_f64()).unwrap();
        prop_assert!((exact_t - fast_t).abs() < eps);

        let algo_o = ObliviousAlgorithm::new(a).unwrap();
        let exact_o = winning_probability_oblivious(&algo_o, &cap).unwrap().to_f64();
        let fast_o = winning_probability_oblivious_f64(&af, cap.to_f64()).unwrap();
        prop_assert!((exact_o - fast_o).abs() < eps);
    }

    // Memoization is invisible: evaluating through one shared
    // EvalContext (tables warm after the first call) gives
    // bit-for-bit the same value as the fresh-context wrappers.
    #[test]
    fn shared_context_is_transparent(
        systems in proptest::collection::vec(
            proptest::collection::vec(unit_rational(), 2..8),
            2..5,
        ),
        cap in capacity(),
    ) {
        let delta = cap.to_f64();
        let mut ctx = EvalContext::new();
        for a in systems {
            let af: Vec<f64> = a.iter().map(Rational::to_f64).collect();
            prop_assert_eq!(
                winning_probability_threshold_in(&mut ctx, &af, &delta).unwrap(),
                winning_probability_threshold_f64(&af, delta).unwrap()
            );
            prop_assert_eq!(
                winning_probability_oblivious_in(&mut ctx, &af, &delta).unwrap(),
                winning_probability_oblivious_f64(&af, delta).unwrap()
            );
        }
    }

    // Beyond the reach of exact cross-checking the ball instantiation
    // takes over as referee: for symmetric systems of up to 32
    // players, both fast paths land inside the certified enclosure
    // computed by the *same* generic core instantiated at `Ball` —
    // containment is an arithmetic theorem (round-to-nearest is
    // monotone, so every f64 intermediate stays inside its outward-
    // rounded ball), and the enclosure itself must stay tight enough
    // to be a meaningful certificate. (Feasible at 32 only because
    // the symmetric path groups the inclusion–exclusion subsets by
    // size into scaled Irwin–Hall CDFs; the positive B-spline
    // recurrence is also what keeps the widths below PROB_EPS — the
    // raw alternating sum's cancellation would blow past it by
    // n = 24.)
    #[test]
    fn f64_paths_lie_in_ball_enclosures_up_to_32_players(
        beta in unit_rational(),
        n in 2usize..=32,
        cap in capacity(),
    ) {
        let bf = beta.to_f64();
        let delta = cap.to_f64();
        let af = vec![bf; n];
        let balls = vec![Ball::point(bf); n];
        let mut ctx: EvalContext<Ball> = EvalContext::new();
        let delta_ball = Ball::point(delta);

        let fast_t = winning_probability_threshold_f64(&af, delta).unwrap();
        let enc_t = winning_probability_threshold_in(&mut ctx, &balls, &delta_ball).unwrap();
        prop_assert!(enc_t.lo() <= fast_t && fast_t <= enc_t.hi(),
            "threshold f64 {fast_t} escapes [{}, {}]", enc_t.lo(), enc_t.hi());
        prop_assert!(enc_t.width() < contracts::tolerances::PROB_EPS);

        let fast_o = winning_probability_oblivious_f64(&af, delta).unwrap();
        let enc_o = winning_probability_oblivious_in(&mut ctx, &balls, &delta_ball).unwrap();
        prop_assert!(enc_o.lo() <= fast_o && fast_o <= enc_o.hi(),
            "oblivious f64 {fast_o} escapes [{}, {}]", enc_o.lo(), enc_o.hi());
        prop_assert!(enc_o.width() < contracts::tolerances::PROB_EPS);
    }

    #[test]
    fn symbolic_piecewise_equals_direct_threshold(
        n in 2usize..6,
        beta in unit_rational(),
        cap in capacity(),
    ) {
        let pw = symmetric::analyze(n, &cap).unwrap();
        let algo = SingleThresholdAlgorithm::symmetric(n, beta.clone()).unwrap();
        let direct = winning_probability_threshold(&algo, &cap).unwrap();
        prop_assert_eq!(pw.eval(&beta).unwrap(), direct);
    }

    #[test]
    fn symbolic_polynomial_equals_direct_oblivious(
        n in 2usize..6,
        alpha in unit_rational(),
        cap in capacity(),
    ) {
        let poly = oblivious::polynomial_in_alpha(n, &cap).unwrap();
        let algo = ObliviousAlgorithm::symmetric(n, alpha.clone()).unwrap();
        let direct = winning_probability_oblivious(&algo, &cap).unwrap();
        prop_assert_eq!(poly.eval(&alpha), direct);
    }

    #[test]
    fn uniform_half_gradient_vanishes(n in 2usize..7, cap in capacity()) {
        let grad = oblivious::optimality_gradient(
            &ObliviousAlgorithm::fair(n),
            &cap,
        ).unwrap();
        prop_assert!(grad.iter().all(Rational::is_zero));
    }

    #[test]
    fn symmetric_piecewise_is_continuous(n in 2usize..7, cap in capacity()) {
        prop_assert!(symmetric::analyze(n, &cap).unwrap().is_continuous());
    }

    #[test]
    fn partial_piecewise_is_exact_section(
        a in proptest::collection::vec(unit_rational(), 3..5),
        k_seed in 0usize..8,
        x in unit_rational(),
        cap in capacity(),
    ) {
        let algo = SingleThresholdAlgorithm::new(a.clone()).unwrap();
        let k = k_seed % a.len();
        let curve = decision::conditions::partial_piecewise(&algo, k, &cap).unwrap();
        prop_assert!(curve.is_continuous());
        let mut moved = a;
        moved[k] = x.clone();
        let direct = winning_probability_threshold(
            &SingleThresholdAlgorithm::new(moved).unwrap(),
            &cap,
        ).unwrap();
        prop_assert_eq!(curve.eval(&x).unwrap(), direct);
    }

    #[test]
    fn general_prefix_rules_equal_thresholds(
        a in proptest::collection::vec(unit_rational(), 2..5),
        cap in capacity(),
    ) {
        let algo = SingleThresholdAlgorithm::new(a).unwrap();
        let rule = decision::rules::GeneralRule::from(&algo);
        prop_assert_eq!(
            rule.winning_probability(&cap).unwrap(),
            winning_probability_threshold(&algo, &cap).unwrap()
        );
    }

    #[test]
    fn interval_rule_bin_swap_invariance(
        cuts in proptest::collection::btree_set(1i64..12, 2..5),
        cap in capacity(),
    ) {
        // Build an alternating rule from sorted cuts in (0,1).
        let cuts: Vec<Rational> = cuts.into_iter().map(|c| Rational::ratio(c, 12)).collect();
        let mut intervals = Vec::new();
        let mut endpoints = vec![Rational::zero()];
        endpoints.extend(cuts);
        endpoints.push(Rational::one());
        for (i, w) in endpoints.windows(2).enumerate() {
            if i % 2 == 0 {
                intervals.push((w[0].clone(), w[1].clone()));
            }
        }
        let set = decision::rules::BinZeroSet::new(intervals).unwrap();
        let rule = decision::rules::GeneralRule::new(vec![set.clone(), set]).unwrap();
        prop_assert_eq!(
            rule.winning_probability(&cap).unwrap(),
            rule.swapped().winning_probability(&cap).unwrap()
        );
    }

    #[test]
    fn crash_mixture_is_monotone_and_bounded(
        a in proptest::collection::vec(unit_rational(), 2..5),
        p1 in 0i64..=10,
        cap in capacity(),
    ) {
        let algo = SingleThresholdAlgorithm::new(a).unwrap();
        let p_lo = Rational::ratio(p1, 10);
        let p_hi = Rational::ratio((p1 + 2).min(10), 10);
        let v_lo = decision::faults::threshold_with_crashes(&algo, &cap, &p_lo).unwrap();
        let v_hi = decision::faults::threshold_with_crashes(&algo, &cap, &p_hi).unwrap();
        prop_assert!(v_hi >= v_lo);
        prop_assert!(v_lo <= Rational::one() && !v_lo.is_negative());
    }

    #[test]
    fn hetero_reduces_to_homogeneous(
        a in proptest::collection::vec(unit_rational(), 2..5),
        cap in capacity(),
    ) {
        let hetero = decision::hetero::HeterogeneousThresholds::homogeneous(a.clone()).unwrap();
        let standard = SingleThresholdAlgorithm::new(a).unwrap();
        prop_assert_eq!(
            hetero.winning_probability(&cap).unwrap(),
            winning_probability_threshold(&standard, &cap).unwrap()
        );
    }

    #[test]
    fn hetero_scale_covariance(
        a in proptest::collection::vec(unit_rational(), 2..4),
        lam_num in 1i64..5,
        cap in capacity(),
    ) {
        let lambda = Rational::ratio(lam_num, 2);
        let base = decision::hetero::HeterogeneousThresholds::homogeneous(a).unwrap();
        let scaled = base.scaled(&lambda);
        let scaled_cap = Capacity::new(cap.value() * &lambda).unwrap();
        prop_assert_eq!(
            scaled.winning_probability(&scaled_cap).unwrap(),
            base.winning_probability(&cap).unwrap()
        );
    }
}
