//! Error types shared across the workspace.

use crate::types::{NodeId, TimeStep};
use std::fmt;

/// Errors produced by model-level validation and by the simulation engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The approximation error must satisfy `0 < ε < 1`.
    InvalidEpsilon {
        /// Offending numerator.
        num: u32,
        /// Offending denominator.
        den: u32,
    },
    /// A filter interval with lower bound above its upper bound was constructed.
    EmptyFilter {
        /// Lower bound of the offending filter.
        lo: u64,
        /// Upper bound of the offending filter (`None` encodes `∞`).
        hi: Option<u64>,
    },
    /// `k` must satisfy `1 ≤ k < n`.
    InvalidK {
        /// Requested `k`.
        k: usize,
        /// Number of nodes.
        n: usize,
    },
    /// A trace with no nodes or no time steps was supplied.
    EmptyTrace,
    /// A trace whose rows do not all have the same number of nodes was supplied.
    RaggedTrace {
        /// Time step at which the row length differs.
        at: TimeStep,
        /// Expected number of nodes.
        expected: usize,
        /// Found number of nodes.
        found: usize,
    },
    /// A node identifier outside `0..n` was used.
    UnknownNode(NodeId),
    /// The server-side protocol produced an output set that violates the
    /// ε-top-k requirements at the given time step.
    InvalidOutput {
        /// Time step at which the violation was detected.
        at: TimeStep,
        /// Human-readable reason.
        reason: String,
    },
    /// The filter set assigned at the end of a protocol exchange is not valid
    /// (Observation 2.2 violated or some node outside its filter).
    InvalidFilterSet {
        /// Time step at which the violation was detected.
        at: TimeStep,
        /// Human-readable reason.
        reason: String,
    },
    /// The protocol exceeded the round budget allowed by the model
    /// (polylogarithmic in `n` and `Δ`).
    RoundBudgetExceeded {
        /// Time step at which the budget was exceeded.
        at: TimeStep,
        /// Rounds used.
        used: u64,
        /// Budget.
        budget: u64,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidEpsilon { num, den } => {
                write!(f, "epsilon {num}/{den} is not in the open interval (0, 1)")
            }
            ModelError::EmptyFilter { lo, hi } => match hi {
                Some(hi) => write!(f, "filter [{lo}, {hi}] is empty"),
                None => write!(f, "filter [{lo}, ∞) is malformed"),
            },
            ModelError::InvalidK { k, n } => {
                write!(f, "k = {k} is not in 1..{n} (n = {n})")
            }
            ModelError::EmptyTrace => write!(f, "trace has no nodes or no time steps"),
            ModelError::RaggedTrace {
                at,
                expected,
                found,
            } => write!(
                f,
                "trace row at {at} has {found} values, expected {expected}"
            ),
            ModelError::UnknownNode(id) => write!(f, "unknown node {id}"),
            ModelError::InvalidOutput { at, reason } => {
                write!(f, "invalid output set at {at}: {reason}")
            }
            ModelError::InvalidFilterSet { at, reason } => {
                write!(f, "invalid filter set at {at}: {reason}")
            }
            ModelError::RoundBudgetExceeded { at, used, budget } => write!(
                f,
                "round budget exceeded at {at}: used {used} rounds, budget {budget}"
            ),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(ModelError, &str)> = vec![
            (ModelError::InvalidEpsilon { num: 3, den: 2 }, "3/2"),
            (ModelError::EmptyFilter { lo: 5, hi: Some(3) }, "[5, 3]"),
            (ModelError::InvalidK { k: 0, n: 4 }, "k = 0"),
            (ModelError::EmptyTrace, "no nodes"),
            (
                ModelError::RaggedTrace {
                    at: TimeStep(3),
                    expected: 4,
                    found: 2,
                },
                "t=3",
            ),
            (ModelError::UnknownNode(NodeId(9)), "node#9"),
            (
                ModelError::InvalidOutput {
                    at: TimeStep(1),
                    reason: "missing clearly-larger node".into(),
                },
                "missing clearly-larger",
            ),
            (
                ModelError::InvalidFilterSet {
                    at: TimeStep(2),
                    reason: "overlap".into(),
                },
                "overlap",
            ),
            (
                ModelError::RoundBudgetExceeded {
                    at: TimeStep(0),
                    used: 100,
                    budget: 10,
                },
                "budget 10",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(
                msg.contains(needle),
                "message `{msg}` should contain `{needle}`"
            );
        }
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_error<E: std::error::Error>(_: &E) {}
        assert_error(&ModelError::EmptyTrace);
    }
}
