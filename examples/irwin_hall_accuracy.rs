//! Accuracy of the `f64` Irwin–Hall CDF against exact arithmetic.
//!
//! For each order `m` the example evaluates `F_m(t)` on a grid of
//! floats `t ≈ k / per_unit` over `(0, m)` twice: exactly (at the
//! float's own value, in integer arithmetic) and through the `f64`
//! instantiation, whose B-spline row is also what the memoized
//! `EvalContext` tables of the symmetric closed forms hold. It prints
//! the worst absolute error and the `t` where it occurs, then the
//! largest order up to which every order measured stays within
//! `contracts::tolerances::PROB_EPS`.
//!
//! Run with (release; about six minutes on a 2-vCPU VM):
//! `cargo run --release --example irwin_hall_accuracy -- --min 8 --max 128 --step 8 --per-unit 97`
//!
//! Use a `per_unit` that is not a power of two: dyadic grid points
//! with few significant bits make many operations exact and hide
//! most of the rounding error.

use nocomm::bigint::BigInt;
use nocomm::rational::Rational;
use nocomm::uniform_sums::irwin_hall_cdf_f64;

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
    let (min, max, per_unit) = (arg("--min", 8), arg("--max", 128), arg("--per-unit", 97));
    let step = arg("--step", 8).max(1);
    let eps = contracts::tolerances::PROB_EPS;
    println!("worst |f64 - exact| of F_m(t), t ~ k/{per_unit} on (0, m)");
    println!("{:>4} {:>12} {:>10}", "m", "error", "at t");
    // The largest order up to which every order measured stays within `eps`.
    let mut largest_within = None;
    let mut all_within = true;
    for m in (min..=max).step_by(step as usize) {
        let mut worst = (0.0f64, 0.0f64);
        for k in 1..m * per_unit {
            // The reference is the exact CDF at the float's own value,
            // so only evaluation error is measured.
            let tf = k as f64 / per_unit as f64;
            let error = (irwin_hall_cdf_f64(m as u32, tf) - exact_cdf(m as u32, tf)).abs();
            // NaN-safe maximum: a non-finite float answer is the worst.
            if error.is_nan() || error > worst.0 {
                worst = (error, tf);
            }
        }
        println!("{m:>4} {:>12.3e} {:>10.4}", worst.0, worst.1);
        all_within &= worst.0 <= eps;
        if all_within {
            largest_within = Some(m);
        }
    }
    match largest_within {
        Some(m) => println!("largest m with worst error <= {eps:e}: {m}"),
        None => println!("no m in {min}..={max} stays within {eps:e}"),
    }
}
