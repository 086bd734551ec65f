//! Error type for the bandit substrate.

use p2b_linalg::LinalgError;
use std::error::Error;
use std::fmt;

/// Error returned by bandit-policy construction, action selection and updates.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BanditError {
    /// A configuration parameter was invalid (zero arms, NaN exploration rate, ...).
    InvalidConfig {
        /// Name of the offending parameter.
        parameter: &'static str,
        /// Human-readable description of the constraint that was violated.
        message: String,
    },
    /// The observed context had a different dimension than the policy expects.
    ContextDimensionMismatch {
        /// Dimension the policy was configured with.
        expected: usize,
        /// Dimension of the offending context.
        found: usize,
    },
    /// The action index is outside `0..num_actions`.
    InvalidAction {
        /// Offending action index.
        action: usize,
        /// Number of actions the policy was configured with.
        num_actions: usize,
    },
    /// A reward outside the `[0, 1]` range required by the paper's setting.
    InvalidReward {
        /// Offending reward value.
        reward: f64,
    },
    /// Summed sufficient statistics handed to a decoder held a NaN or
    /// infinite coordinate.
    NonFiniteStatistics {
        /// Arm whose statistics were not finite.
        arm: usize,
    },
    /// An underlying linear-algebra operation failed.
    Linalg(LinalgError),
}

impl fmt::Display for BanditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BanditError::InvalidConfig { parameter, message } => {
                write!(f, "invalid configuration for `{parameter}`: {message}")
            }
            BanditError::ContextDimensionMismatch { expected, found } => write!(
                f,
                "context dimension mismatch: policy expects {expected}, observed {found}"
            ),
            BanditError::InvalidAction {
                action,
                num_actions,
            } => write!(
                f,
                "action index {action} out of range for {num_actions} actions"
            ),
            BanditError::InvalidReward { reward } => {
                write!(f, "reward {reward} outside the [0, 1] range")
            }
            BanditError::NonFiniteStatistics { arm } => {
                write!(f, "arm {arm}: sufficient statistics are not finite")
            }
            BanditError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl Error for BanditError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BanditError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for BanditError {
    fn from(e: LinalgError) -> Self {
        BanditError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = BanditError::ContextDimensionMismatch {
            expected: 10,
            found: 3,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains('3'));

        let e = BanditError::InvalidAction {
            action: 7,
            num_actions: 5,
        };
        assert!(e.to_string().contains('7'));

        let e = BanditError::InvalidReward { reward: 2.0 };
        assert!(e.to_string().contains('2'));
    }

    #[test]
    fn wraps_linalg_errors_with_source() {
        let inner = LinalgError::Empty;
        let e = BanditError::from(inner.clone());
        assert!(e.to_string().contains("linear algebra"));
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Error + Send + Sync + 'static>() {}
        assert_bounds::<BanditError>();
    }
}
