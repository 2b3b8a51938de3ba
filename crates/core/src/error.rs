//! Error types for filter construction and decoding.

use std::error::Error;
use std::fmt;

/// A convenient result alias used throughout [`dipm-core`](crate).
pub type Result<T, E = CoreError> = std::result::Result<T, E>;

/// Errors produced by filter construction, weight construction and decoding.
///
/// # Examples
///
/// ```
/// use dipm_core::{CoreError, Weight};
///
/// let err = Weight::new(1, 0).unwrap_err();
/// assert!(matches!(err, CoreError::ZeroDenominator));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// A [`Weight`](crate::Weight) was constructed with a zero denominator.
    ZeroDenominator,
    /// Filter parameters were rejected (zero size, zero hash count, too many
    /// bits for the wire format, or an out-of-range target false-positive
    /// probability).
    InvalidParams {
        /// Human-readable reason for the rejection.
        reason: String,
    },
    /// A byte buffer could not be decoded into a filter.
    Decode {
        /// Human-readable reason the buffer was rejected.
        reason: String,
    },
    /// Two filters with incompatible geometry (length, hash count or seed)
    /// were combined.
    IncompatibleFilters,
}

impl CoreError {
    pub(crate) fn invalid_params(reason: impl Into<String>) -> Self {
        CoreError::InvalidParams {
            reason: reason.into(),
        }
    }

    pub(crate) fn decode(reason: impl Into<String>) -> Self {
        CoreError::Decode {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ZeroDenominator => write!(f, "weight denominator must be non-zero"),
            CoreError::InvalidParams { reason } => {
                write!(f, "invalid filter parameters: {reason}")
            }
            CoreError::Decode { reason } => write!(f, "malformed filter encoding: {reason}"),
            CoreError::IncompatibleFilters => {
                write!(f, "filters have incompatible geometry")
            }
        }
    }
}

impl Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_without_trailing_punctuation() {
        let errors = [
            CoreError::ZeroDenominator,
            CoreError::invalid_params("bits must be non-zero"),
            CoreError::decode("truncated header"),
            CoreError::IncompatibleFilters,
        ];
        for err in errors {
            let text = err.to_string();
            assert!(!text.is_empty());
            assert!(text.chars().next().unwrap().is_lowercase());
            assert!(!text.ends_with('.'));
        }
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }

    #[test]
    fn error_trait_object_usable() {
        let err: Box<dyn Error + Send + Sync> = Box::new(CoreError::ZeroDenominator);
        assert!(err.to_string().contains("denominator"));
    }
}
