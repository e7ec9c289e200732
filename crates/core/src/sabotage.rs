//! One-shot protocol saboteurs for the mutation smoke test.
//!
//! Compiled only under the `saboteur` feature, these deliberately break
//! one protocol step at one call site so the mutation suite can prove
//! the auditor catches each class of bug as a *named*
//! [`AuditViolation`](rshuffle_audit::AuditViolation) — never a hang,
//! never a silent pass. A saboteur is armed process-wide and fires
//! exactly once (the first matching call site wins), so a sabotaged run
//! damages a single protocol step and the rest of the run shows how the
//! damage propagates.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The protocol steps a test can sabotage.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Sabotage {
    /// Skip one credit write-back in the RC send/receive design
    /// (§4.4.1). Absolute credit self-heals at the next write-back, so
    /// only the auditor's online gap check can see it.
    SkipCreditWriteback = 0,
    /// Drop one ValidArr write in the one-sided designs (Alg. 3 and §7)
    /// once its slots are claimed: the written buffer is never
    /// advertised, the receiver's stall watchdog fires at the hole, and
    /// finalize names the ring imbalance.
    DropValidArrUpdate = 1,
    /// Announce a `Depleted` counter one below the data messages
    /// actually sent (§4.4.2), so a receiver would terminate early and
    /// silently miss a message.
    UnderreportDepletedCount = 2,
    /// Grant the same remote buffer offset back twice in the RDMA
    /// Write design (§7), inviting the sender to overwrite a buffer the
    /// operator may still be reading.
    DoubleGrant = 3,
    /// Swallow one credit write-back completion on the RC control CQ
    /// without accounting for it — the bug the old
    /// `let _ = ctrl_cq.poll(..)` drain had by construction. The
    /// outstanding-write ledger never drains and end-of-stream reports
    /// a typed stall instead of passing silently.
    SwallowCtrlCompletion = 4,
    /// Send one more data message after a reliable connection's final
    /// one declared `Depleted`: a receiver that already counts the
    /// source as done may end without it.
    SendAfterDepleted = 5,
    /// Strand one ValidArr queue in the one-sided designs: the
    /// announcements that waited behind a write in flight are dropped
    /// when its ack is reaped instead of written. No slot is left empty,
    /// so no receiver need stall; the producer counted each announcement
    /// when it queued, so finalize names the ring imbalance.
    StrandAnnouncementQueue = 6,
}

/// Currently armed saboteur, encoded as `discriminant + 1` (0 = none).
static ARMED: AtomicUsize = AtomicUsize::new(0);

/// Arms `s`; the next matching protocol step is sabotaged once.
pub fn arm(s: Sabotage) {
    ARMED.store(s as usize + 1, Ordering::SeqCst);
}

/// Disarms any pending saboteur.
pub fn disarm() {
    ARMED.store(0, Ordering::SeqCst);
}

/// Consumes `s` if it is the armed saboteur. Call sites sabotage their
/// step exactly when this returns true.
pub fn take(s: Sabotage) -> bool {
    ARMED
        .compare_exchange(s as usize + 1, 0, Ordering::SeqCst, Ordering::SeqCst)
        .is_ok()
}
