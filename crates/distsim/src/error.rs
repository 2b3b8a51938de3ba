//! Error types for the simulated network.

use std::error::Error;
use std::fmt;

use crate::node::NodeId;

/// A convenient result alias used throughout [`dipm-distsim`](crate).
pub type Result<T, E = DistSimError> = std::result::Result<T, E>;

/// Errors produced by the simulated network layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DistSimError {
    /// A message targeted a node that never registered a mailbox.
    UnknownNode(NodeId),
    /// A node registered twice.
    DuplicateNode(NodeId),
    /// The receiving mailbox was dropped before delivery.
    Disconnected(NodeId),
    /// The `DIPM_MODE` environment variable held a value outside the
    /// documented grammar. Malformed operator input must fail loudly —
    /// silently falling back to a default mode would run a benchmark or CI
    /// job under the wrong runtime.
    InvalidMode {
        /// The rejected value, verbatim.
        value: String,
    },
}

impl fmt::Display for DistSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistSimError::UnknownNode(node) => write!(f, "no mailbox registered for {node}"),
            DistSimError::DuplicateNode(node) => {
                write!(f, "mailbox already registered for {node}")
            }
            DistSimError::Disconnected(node) => {
                write!(f, "mailbox for {node} disconnected")
            }
            DistSimError::InvalidMode { value } => {
                write!(
                    f,
                    "DIPM_MODE={value:?} is not a valid execution mode \
                     (expected sequential|seq|async|async:N)"
                )
            }
        }
    }
}

impl Error for DistSimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_node() {
        assert!(DistSimError::UnknownNode(NodeId(4))
            .to_string()
            .contains("N4"));
    }
}
