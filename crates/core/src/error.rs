//! Error type for the shuffling operators.

use std::fmt;

use rshuffle_verbs::VerbsError;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ShuffleError>;

/// Errors surfaced by the shuffle/receive operators and endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShuffleError {
    /// An underlying verbs operation failed.
    Verbs(VerbsError),
    /// Unreliable transport lost messages and the wait for outstanding
    /// packets timed out; per §4.4.2 the query must be restarted.
    NetworkErrorRestartQuery {
        /// The endpoint id of the source whose messages went missing.
        src: u32,
        /// Messages the source claims to have sent.
        expected: u64,
        /// Messages actually received before the timeout.
        received: u64,
    },
    /// An endpoint made no progress for longer than the stall timeout,
    /// indicating a flow-control protocol failure.
    Stalled(&'static str),
    /// A hardware completion carried an error status.
    CompletionError(&'static str),
    /// The attempt this call served was aborted because another of its
    /// workers failed first (`Exchange::abort`). Never an attempt's
    /// representative error: the first worker's error is.
    Aborted,
    /// Wire data or protocol slot state failed validation (bad header
    /// tag, out-of-range offset, oversized payload). The memory the
    /// query computed over is suspect, so the query restarts — it must
    /// never abort the process.
    Corrupt(String),
    /// The operator or endpoint was misconfigured.
    Config(String),
    /// The recovery orchestrator exhausted a node's per-flow retry
    /// budget: every reconnect attempt within the budget found the
    /// fabric still broken. The caller must either degrade to a
    /// sturdier configuration or give the query up — retrying further
    /// is pointless.
    RetryBudgetExhausted {
        /// The node whose queue pairs kept failing.
        node: usize,
        /// Reconnect attempts made before giving up.
        attempts: u32,
    },
    /// The query's registered-memory requirement can never fit the
    /// scheduler's per-node budget, even running alone — admitting it
    /// would hang forever, so it is rejected up front.
    BudgetImpossible {
        /// Node whose requirement exceeds the budget.
        node: usize,
        /// Bytes the query needs registered on that node.
        required: usize,
        /// The configured per-node budget.
        budget: usize,
    },
}

impl fmt::Display for ShuffleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShuffleError::Verbs(e) => write!(f, "verbs error: {e}"),
            ShuffleError::NetworkErrorRestartQuery {
                src,
                expected,
                received,
            } => write!(
                f,
                "network error: source endpoint {src} sent {expected} messages but only \
                 {received} arrived; restart the query"
            ),
            ShuffleError::Stalled(what) => write!(f, "endpoint stalled: {what}"),
            ShuffleError::CompletionError(what) => write!(f, "completion error: {what}"),
            ShuffleError::Aborted => {
                write!(f, "aborted: another worker of the attempt failed first")
            }
            ShuffleError::Corrupt(what) => write!(f, "protocol state corrupt: {what}"),
            ShuffleError::Config(msg) => write!(f, "configuration error: {msg}"),
            ShuffleError::RetryBudgetExhausted { node, attempts } => write!(
                f,
                "retry budget exhausted: node {node} still unreachable after \
                 {attempts} reconnect attempts"
            ),
            ShuffleError::BudgetImpossible {
                node,
                required,
                budget,
            } => write!(
                f,
                "registered-memory budget impossible: node {node} needs {required} bytes \
                 but the per-node budget is {budget}"
            ),
        }
    }
}

impl std::error::Error for ShuffleError {}

impl From<VerbsError> for ShuffleError {
    fn from(e: VerbsError) -> Self {
        ShuffleError::Verbs(e)
    }
}
