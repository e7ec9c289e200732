//! Error type for verbs operations.

use crate::types::{QpNum, QpState};
use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, VerbsError>;

/// Errors returned by verbs operations.
///
/// These correspond to the immediate (synchronous) failure modes of the
/// `ibv_*` calls; asynchronous failures surface as completion statuses
/// instead (see [`crate::cq::WcStatus`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerbsError {
    /// The operation is not allowed in the QP's current state.
    InvalidState {
        /// The QP the operation targeted.
        qp: QpNum,
        /// Its state at the time of the call.
        state: QpState,
        /// What was attempted.
        op: &'static str,
    },
    /// The message exceeds the transport's maximum size (MTU for UD,
    /// 1 GiB for RC).
    MessageTooLarge {
        /// Requested message length.
        len: usize,
        /// Transport maximum.
        max: usize,
    },
    /// An RC operation was attempted before the QP was connected to a peer.
    NotConnected(QpNum),
    /// A UD send was posted without an address handle (a multicast to no
    /// member has none either).
    MissingAddressHandle,
    /// A buffer range falls outside its memory region.
    OutOfBounds {
        /// Start offset of the access.
        offset: usize,
        /// Length of the access.
        len: usize,
        /// Size of the memory region.
        region: usize,
    },
    /// A remote key did not resolve to a registered region.
    BadRemoteKey(u32),
    /// The opcode is not supported on this transport (e.g. RDMA Read on UD).
    UnsupportedOp {
        /// The offending opcode, for diagnostics.
        op: &'static str,
        /// A human-readable reason.
        reason: &'static str,
    },
}

impl fmt::Display for VerbsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerbsError::InvalidState { qp, state, op } => {
                write!(f, "{op} not permitted on {qp:?} in state {state:?}")
            }
            VerbsError::MessageTooLarge { len, max } => {
                write!(f, "message of {len} bytes exceeds transport maximum {max}")
            }
            VerbsError::NotConnected(qp) => write!(f, "{qp:?} has no connected peer"),
            VerbsError::MissingAddressHandle => {
                write!(f, "UD send requires an address handle")
            }
            VerbsError::OutOfBounds {
                offset,
                len,
                region,
            } => write!(
                f,
                "access [{offset}, {}) outside region of {region} bytes",
                offset.saturating_add(*len)
            ),
            VerbsError::BadRemoteKey(rkey) => write!(f, "unknown rkey {rkey}"),
            VerbsError::UnsupportedOp { op, reason } => {
                write!(f, "{op} unsupported: {reason}")
            }
        }
    }
}

impl std::error::Error for VerbsError {}
