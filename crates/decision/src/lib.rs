//! Optimal distributed decision-making with no communication.
//!
//! This crate implements the core of Georgiades, Mavronicolas &
//! Spirakis, *"Optimal, Distributed Decision-Making: The Case of No
//! Communication"* (FCT 1999): `n` players each receive a private
//! input `x_i ~ U[0,1]` and must choose one of two bins of capacity
//! `δ`, with no communication. The *winning probability* of an
//! algorithm `A` is
//!
//! ```text
//! P_A(δ) = P(Σ_0 ≤ δ and Σ_1 ≤ δ),    Σ_b = Σ_{i : y_i = b} x_i .
//! ```
//!
//! Provided here:
//!
//! * the model types — [`ObliviousAlgorithm`] (a probability vector,
//!   players ignore their inputs) and [`SingleThresholdAlgorithm`]
//!   (player `i` picks bin 0 iff `x_i ≤ a_i`), both implementing the
//!   [`LocalRule`] interface consumed by the `simulator` crate;
//! * **winning probabilities implemented once, generically** over
//!   [`rational::Scalar`]: Theorem 4.1 for oblivious algorithms
//!   ([`winning_probability_oblivious_in`]) and Theorem 5.1 for
//!   single-threshold algorithms
//!   ([`winning_probability_threshold_in`]), each taking a memoized
//!   [`EvalContext`]; the exact rational API
//!   ([`winning_probability_oblivious`],
//!   [`winning_probability_threshold`]) and the `*_f64` fast paths
//!   are thin instantiation wrappers;
//! * **optimality conditions**: the exact gradient of Corollary 4.2
//!   ([`oblivious::optimality_gradient`]) and numeric gradients for
//!   thresholds;
//! * the **oblivious analysis** (Section 4): `P(α)` as an exact
//!   polynomial, and the uniform optimum `α = 1/2`
//!   ([`oblivious::optimal`]);
//! * the **non-oblivious symmetric analysis** (Section 5): `P(β)` as
//!   an exact [`PiecewisePolynomial`](polynomial::PiecewisePolynomial)
//!   and its exact maximization ([`symmetric::analyze`]), reproducing
//!   `β* = 1 − √(1/7)` for `n = 3, δ = 1`;
//! * a derivative-free **asymmetric numeric optimizer**
//!   ([`numeric::maximize_threshold`]) that searches the whole cube
//!   (and finds the boundary partition corners the paper's interior
//!   analysis does not cover);
//! * **extensions** beyond the paper: exact per-coordinate Theorem 5.2
//!   machinery ([`conditions`]), general interval rules and unequal
//!   capacities ([`rules`]), crash faults ([`faults`]), heterogeneous
//!   input scales ([`hetero`]), and randomized threshold mixtures
//!   ([`RandomizedThresholds`]).
//!
//! # Examples
//!
//! ```
//! use decision::{symmetric, Capacity};
//! use rational::Rational;
//!
//! // n = 3, δ = 1: the optimal threshold settles the Papadimitriou-
//! // Yannakakis conjecture.
//! let analysis = symmetric::analyze(3, &Capacity::new(Rational::one()).unwrap()).unwrap();
//! let best = analysis.maximize(&Rational::ratio(1, 1_000_000_000));
//! assert!((best.argmax.to_f64() - 0.622).abs() < 1e-3);
//! assert!((best.value.to_f64() - 0.545).abs() < 1e-3);
//! ```

#![forbid(unsafe_code)]

mod algorithms;
mod capacity;
pub mod certified;
pub mod conditions;
mod error;
pub mod faults;
pub mod hetero;
pub mod numeric;
pub mod oblivious;
mod randomized;
pub mod rules;
pub mod symmetric;
mod winning;

pub use algorithms::{Bin, KernelHint, LocalRule, ObliviousAlgorithm, SingleThresholdAlgorithm};
pub use capacity::Capacity;
pub use error::ModelError;
pub use randomized::RandomizedThresholds;
pub use winning::{
    winning_probability_oblivious, winning_probability_oblivious_f64,
    winning_probability_oblivious_in, winning_probability_threshold,
    winning_probability_threshold_f64, winning_probability_threshold_in,
    MAX_EXACT_THRESHOLD_PLAYERS,
};

pub use rational::Scalar;
pub use uniform_sums::EvalContext;
