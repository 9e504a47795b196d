//! Error types for the message-passing runtime.

use std::fmt;
use std::time::Duration;

/// Errors raised by communicator operations.
///
/// The runtime distinguishes two families. *Programming errors*
/// ([`CommError::InvalidRank`], [`CommError::Truncated`],
/// [`CommError::BadArgument`]) follow MPI's philosophy: well-formed SPMD
/// programs never see them. *Runtime faults* ([`CommError::Timeout`],
/// [`CommError::RankFailed`]) are different — they are expected outcomes on a
/// lossy or partially-failed system, raised by the deadline-aware receives and
/// by [`crate::ReliableComm`]'s bounded retry, and `bruck-core`'s recovering
/// driver turns them into an abort vote, then a shrink and a retry, instead
/// of a hang.
///
/// The enum is `#[non_exhaustive]`: downstream matches must carry a wildcard
/// arm, so future fault variants are not a breaking change.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CommError {
    /// A rank argument was outside `0..size`.
    InvalidRank {
        /// The offending rank value.
        rank: usize,
        /// The communicator size it was checked against.
        size: usize,
    },
    /// A receive was posted with a buffer smaller than the matched message.
    ///
    /// MPI calls this a truncation error (`MPI_ERR_TRUNCATE`).
    Truncated {
        /// Bytes in the matched incoming message.
        message_len: usize,
        /// Capacity of the posted receive buffer.
        buffer_len: usize,
    },
    /// Mismatched argument lengths (e.g. a counts slice not of length `size`).
    BadArgument(&'static str),
    /// A deadline-aware receive found no matching message in time.
    ///
    /// Raised by a [`crate::Communicator::recv_match`] with a timeout. On a
    /// healthy system this means the deadline was too tight; under fault
    /// injection it is how a stalled or crashed peer is *detected*.
    Timeout {
        /// Source rank the receive was posted for.
        src: usize,
        /// Tag the receive was posted for.
        tag: crate::Tag,
        /// How long the receive actually waited before giving up.
        waited: Duration,
    },
    /// A peer rank is considered failed: either this rank was scripted to
    /// crash (every subsequent operation on it returns this), or
    /// [`crate::ReliableComm`] exhausted its retransmission budget without an
    /// acknowledgement from `rank`.
    RankFailed {
        /// The rank that failed (may be this rank itself on a crashed rank).
        rank: usize,
    },
    /// The deterministic simulator proved a deadlock: every live rank is
    /// blocked and none of the pending waits carries a timeout, so no
    /// schedule can make progress. Raised by [`crate::SimComm`] from each
    /// blocked receive; never returned by the real-thread backend (which
    /// would simply hang).
    Deadlock {
        /// Source rank this rank was blocked waiting on when the deadlock
        /// was detected.
        src: usize,
        /// Tag this rank was blocked waiting on.
        tag: crate::Tag,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::InvalidRank { rank, size } => {
                write!(f, "rank {rank} out of range for communicator of size {size}")
            }
            CommError::Truncated { message_len, buffer_len } => write!(
                f,
                "message of {message_len} bytes truncated by {buffer_len}-byte receive buffer"
            ),
            CommError::BadArgument(what) => write!(f, "bad argument: {what}"),
            CommError::Timeout { src, tag, waited } => write!(
                f,
                "receive from rank {src} tag {tag} timed out after {waited:?} \
                 (peer slow, stalled, or failed)"
            ),
            CommError::RankFailed { rank } => write!(
                f,
                "rank {rank} failed: crashed, or unacknowledged after bounded retransmission"
            ),
            CommError::Deadlock { src, tag } => write!(
                f,
                "deadlock: every rank is blocked with no timeout pending; \
                 this rank was waiting on rank {src} tag {tag}"
            ),
        }
    }
}

impl std::error::Error for CommError {}

/// Convenience alias used across the runtime.
pub type CommResult<T> = Result<T, CommError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_variant_display_is_actionable() {
        let t = CommError::Timeout { src: 3, tag: 7, waited: Duration::from_millis(250) };
        let msg = t.to_string();
        assert!(msg.contains("rank 3") && msg.contains("tag 7") && msg.contains("250ms"), "{msg}");
        let r = CommError::RankFailed { rank: 5 };
        assert!(r.to_string().contains("rank 5"));
    }
}
