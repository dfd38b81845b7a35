//! Distributions of sums of independent uniform random variables
//! (the paper's Section 2.2).
//!
//! * [`BoxSum`] — `Σ x_i` with `x_i ~ U[0, π_i]`: exact CDF
//!   (Lemma 2.4) and density (Lemma 2.5). The density formula answers
//!   a research problem posed by G.-C. Rota.
//! * [`UniformSum`] — `Σ x_i` with `x_i ~ U[a_i, b_i]` on arbitrary
//!   intervals, by shifting a [`BoxSum`]; specializing to
//!   `[π_i, 1]` gives Lemma 2.7.
//! * [`irwin_hall_cdf`] / [`irwin_hall_pdf`] — the classical
//!   Irwin–Hall special case `π_i = 1` (Corollary 2.6), which is what
//!   the symmetric analyses (Theorems 4.1 and 5.1) consume. Inexact
//!   scalars evaluate it through one positive B-spline recurrence,
//!   [`irwin_hall_row`], which yields every order at one argument.
//!
//! Each formula is implemented once, generically over
//! [`rational::Scalar`] ([`box_sum_cdf_in`], [`irwin_hall_cdf_in`],
//! …); the exact rational API and the `*_f64` fast path are its two
//! instantiations, and [`EvalContext`] memoizes the combinatorial
//! sub-terms for sweep/optimizer hot loops. A symbolic layer
//! materializes CDF/PDF as exact
//! piecewise polynomials in `t` ([`BoxSum::cdf_piecewise`]), from
//! which exact moments ([`BoxSum::mean`], [`BoxSum::variance`]) and
//! certified quantiles ([`BoxSum::quantile`]) follow.
//!
//! # Examples
//!
//! ```
//! use rational::Rational;
//! use uniform_sums::BoxSum;
//!
//! // Two uniforms on [0,1]: P(x1 + x2 <= 1) = 1/2.
//! let s = BoxSum::new(vec![Rational::one(), Rational::one()]).unwrap();
//! assert_eq!(s.cdf(&Rational::one()), Rational::ratio(1, 2));
//! ```

#![forbid(unsafe_code)]

mod box_sum;
mod context;
mod irwin_hall;
mod shared;
mod symbolic;
mod uniform_sum;

pub use box_sum::{box_sum_cdf_in, box_sum_pdf_in, BoxSum};
pub use context::EvalContext;
pub use irwin_hall::{
    irwin_hall_cdf, irwin_hall_cdf_f64, irwin_hall_cdf_in, irwin_hall_cdf_row, irwin_hall_pdf,
    irwin_hall_pdf_in, irwin_hall_row, IrwinHallRow,
};
pub use shared::SharedContext;
pub use uniform_sum::{shifted_box_sum_cdf_in, UniformSum};

use std::fmt;

/// Error for invalid distribution parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DistributionError {
    /// No variables were supplied.
    Empty,
    /// An interval was empty or reversed.
    BadInterval {
        /// Index of the offending variable.
        index: usize,
    },
}

impl fmt::Display for DistributionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistributionError::Empty => f.write_str("need at least one random variable"),
            DistributionError::BadInterval { index } => {
                write!(f, "interval at index {index} is empty or reversed")
            }
        }
    }
}

impl std::error::Error for DistributionError {}
