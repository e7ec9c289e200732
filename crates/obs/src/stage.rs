//! Stage taxonomy for per-message latency decomposition.
//!
//! A two-sided message's virtual-time lifetime is split into four
//! segments, matching where the paper's evaluation says shuffle time
//! goes (credit stalls, NIC processing, CQ polling):
//!
//! ```text
//!  app wants to send ──CreditWait──▶ doorbell ──WrBatch──▶ NIC accepts
//!      ──PostToCompletion──▶ completion deposited ──CqWait──▶ polled
//! ```
//!
//! Each stage is surfaced as a per-node `stage.*_ns` histogram (see
//! [`crate::names`]). Recording is gated by one flag on [`crate::Obs`],
//! `stage_histograms` (default **on**): when off, no `stage.*` series
//! is ever registered, so a disabled run's snapshot is byte-identical to
//! one from a build without the instrumentation.
//!
//! All timestamps are virtual nanoseconds; recording never advances the
//! simulated clock, which is what makes the instrumentation observably
//! free (`tests/determinism.rs` proves it).

/// One segment of a message's lifetime.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Sender blocked waiting for flow-control credits before it could
    /// post (zero for sends that never stalled).
    CreditWait,
    /// Doorbell ring until the NIC pipeline accepts the work request —
    /// the WR-post batching / pipeline-occupancy delay.
    WrBatch,
    /// NIC accepts the work request until the completion is deposited
    /// in the CQ (wire time + remote processing for two-sided ops).
    PostToCompletion,
    /// Completion sits in the CQ until the consumer polls it out.
    CqWait,
}

impl Stage {
    /// Number of stages (rows in per-node id tables).
    pub const COUNT: usize = 4;

    /// Every stage, in lifetime order; `ALL[s as usize] == s`.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::CreditWait,
        Stage::WrBatch,
        Stage::PostToCompletion,
        Stage::CqWait,
    ];

    /// Canonical metric series name (`{node}`-labelled histogram).
    pub fn metric_name(self) -> &'static str {
        match self {
            Stage::CreditWait => crate::names::STAGE_CREDIT_WAIT_NS,
            Stage::WrBatch => crate::names::STAGE_WR_BATCH_NS,
            Stage::PostToCompletion => crate::names::STAGE_POST_TO_COMPLETION_NS,
            Stage::CqWait => crate::names::STAGE_CQ_WAIT_NS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_indexable_by_discriminant() {
        for (i, s) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(s as usize, i);
        }
    }

    #[test]
    fn names_live_under_stage_prefix() {
        for s in Stage::ALL {
            assert!(s.metric_name().starts_with("stage."));
            assert!(s.metric_name().ends_with("_ns"));
        }
    }
}
