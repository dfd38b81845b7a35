//! Errors for model construction.

use std::fmt;

/// Error returned when constructing an invalid model object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelError {
    /// The system must have at least two players.
    TooFewPlayers {
        /// The offending player count.
        n: usize,
    },
    /// A probability was outside `[0, 1]`.
    ProbabilityOutOfRange {
        /// Index of the offending player.
        index: usize,
    },
    /// A threshold was outside `[0, 1]`.
    ThresholdOutOfRange {
        /// Index of the offending player.
        index: usize,
    },
    /// The capacity `δ` must be strictly positive.
    NonPositiveCapacity,
    /// Exhaustive enumeration over `2^n` decision vectors was asked
    /// for an `n` too large to finish, or a float evaluation
    /// overflowed at an `n` beyond the largest it stays finite for.
    TooManyPlayersForExact {
        /// The offending player count.
        n: usize,
        /// The largest supported count.
        max: usize,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::TooFewPlayers { n } => {
                write!(f, "need at least two players, got {n}")
            }
            ModelError::ProbabilityOutOfRange { index } => {
                write!(f, "probability for player {index} must lie in [0, 1]")
            }
            ModelError::ThresholdOutOfRange { index } => {
                write!(f, "threshold for player {index} must lie in [0, 1]")
            }
            ModelError::NonPositiveCapacity => f.write_str("capacity must be positive"),
            ModelError::TooManyPlayersForExact { n, max } => {
                write!(
                    f,
                    "exact evaluation supports at most {max} players, got {n}"
                )
            }
        }
    }
}

impl std::error::Error for ModelError {}
