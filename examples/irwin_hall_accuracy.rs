//! Accuracy of the `f64` Irwin–Hall CDF against exact arithmetic.
//!
//! For each order `m` the example evaluates `F_m(t)` on a dense grid
//! of floats `t ≈ k / per_unit` over `(0, m)` three ways: exactly (at
//! the float's own value, in integer arithmetic), through the direct
//! `f64` instantiation, and through the memoized `f64` `EvalContext`
//! that the symmetric closed forms use. It prints the worst absolute
//! error of each float path and the `t` where it occurs, then the
//! largest order up to which every order stays within
//! `contracts::tolerances::PROB_EPS` — the measurement behind
//! `<f64 as Scalar>::MAX_IRWIN_HALL_ORDER`.
//!
//! Run with (release, because the debug contracts panic on the
//! out-of-range values the higher orders produce; a few minutes on a
//! 2-vCPU VM):
//! `cargo run --release --example irwin_hall_accuracy -- --min 36 --max 46 --per-unit 997`
//!
//! The recorded limit also used `--min 38 --max 40 --per-unit 4093`
//! (about two minutes per order). Use a `per_unit` that is not a
//! power of two: dyadic grid points with few significant bits make
//! the power terms exact and hide most of the rounding error.

use nocomm::bigint::BigInt;
use nocomm::rational::Rational;
use nocomm::uniform_sums::{irwin_hall_cdf_f64, EvalContext};

fn arg(name: &str, default: i64) -> i64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map_or(default, |v| v.parse().expect("integer argument"))
}

/// Exact `F_m(t)` at the float `t`, rounded once to `f64`. With
/// `t = N / D` (`D` a power of two) Corollary 2.6 reads
/// `F_m(t) = Σ_{i < t} (−1)^i C(m, i) (N − iD)^m / (m! D^m)`: the
/// numerator is summed in integers and divided once, which is much
/// faster than summing the terms as reduced rationals.
fn exact_cdf(m: u32, t: f64) -> f64 {
    let t = Rational::from_f64_exact(t).expect("finite grid point");
    let (num, den) = (t.numer(), t.denom());
    let mut sum = BigInt::from(0);
    let mut binom = BigInt::from(1);
    let mut shift = BigInt::from(0);
    for i in 0..=m {
        if &shift >= num {
            break;
        }
        let term = &binom * &(num - &shift).pow(m);
        sum = if i % 2 == 0 {
            &sum + &term
        } else {
            &sum - &term
        };
        binom = &(&binom * &BigInt::from(m - i)) / &BigInt::from(i + 1);
        shift = &shift + den;
    }
    let factorial: BigInt = (1..=m).map(BigInt::from).product();
    Rational::new(sum, &factorial * &den.pow(m)).to_f64()
}

fn main() {
    let (min, max, per_unit) = (arg("--min", 36), arg("--max", 46), arg("--per-unit", 997));
    let eps = contracts::tolerances::PROB_EPS;
    println!("worst |f64 - exact| of F_m(t), t ~ k/{per_unit} on (0, m)");
    println!(
        "{:>4} {:>12} {:>10} {:>12} {:>10}",
        "m", "direct", "at t", "memoized", "at t"
    );
    // The largest order up to which every order stays within `eps`.
    let mut largest_within = None;
    let mut all_within = true;
    for m in min..=max {
        let mut direct = (0.0f64, 0.0f64);
        let mut memoized = (0.0f64, 0.0f64);
        for k in 1..m * per_unit {
            // The reference is the exact CDF at the float's own value,
            // so only evaluation error is measured.
            let tf = k as f64 / per_unit as f64;
            let exact = exact_cdf(m as u32, tf);
            let d = (irwin_hall_cdf_f64(m as u32, tf) - exact).abs();
            // A fresh context per point, so every value is computed
            // rather than read back from the context's table cache.
            let c = (EvalContext::<f64>::new().irwin_hall_cdf(m as u32, &tf) - exact).abs();
            // NaN-safe maxima: a non-finite float answer is the worst.
            if d.is_nan() || d > direct.0 {
                direct = (d, tf);
            }
            if c.is_nan() || c > memoized.0 {
                memoized = (c, tf);
            }
        }
        println!(
            "{m:>4} {:>12.3e} {:>10.4} {:>12.3e} {:>10.4}",
            direct.0, direct.1, memoized.0, memoized.1
        );
        all_within &= direct.0 <= eps && memoized.0 <= eps;
        if all_within {
            largest_within = Some(m);
        }
    }
    match largest_within {
        Some(m) => println!("largest m with worst error <= {eps:e} on both paths: {m}"),
        None => println!("no m in {min}..={max} stays within {eps:e}"),
    }
}
