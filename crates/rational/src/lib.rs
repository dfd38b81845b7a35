//! Exact rational arithmetic over arbitrary-precision integers.
//!
//! Every probability in the paper — inclusion–exclusion volumes,
//! Irwin–Hall CDF values, winning probabilities, polynomial
//! coefficients of `P_A(β)` — is a rational number. This crate
//! provides the canonical-form [`Rational`] type (reduced, positive
//! denominator) plus the combinatorial helpers the formulas need
//! ([`factorial`], [`binomial`]).
//!
//! # Examples
//!
//! ```
//! use rational::Rational;
//!
//! let p = Rational::ratio(1, 6) + Rational::ratio(3, 2) * Rational::ratio(1, 4);
//! assert_eq!(p, Rational::ratio(13, 24));
//! assert_eq!(p.to_string(), "13/24");
//! ```

#![forbid(unsafe_code)]

mod approx;
mod ball;
mod combinatorics;
mod convert;
mod ops;
mod ratio;
mod scalar;

pub use ball::Ball;
pub use combinatorics::{binomial, binomial_rational, factorial, factorial_rational};
pub use convert::ParseRationalError;
pub use ratio::Rational;
pub use scalar::{factorial_in, Scalar};
