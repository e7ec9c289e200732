//! The partial-retry flow protocol's one table: how many rows of each flow
//! have reached a sink. RECEIVE writes it
//! ([`crate::ReceiveOperator::recording`]) and SHUFFLE reads it
//! ([`crate::ShuffleOperator::resume_from`]).

use std::collections::BTreeMap;

use parking_lot::Mutex;
use rshuffle_simnet::NodeId;

/// `(source node, source thread, destination node)`.
pub(crate) type Flow = (NodeId, u16, NodeId);

/// Delivered-row watermarks per flow, shared by every attempt of one
/// query generation.
#[derive(Default)]
pub struct FlowLedger {
    rows: Mutex<BTreeMap<Flow, u64>>,
}

impl FlowLedger {
    /// Rows sender `(src, tid)` skips on resume for the group targeting
    /// `members`: the least watermark across them.
    pub(crate) fn resume_skip(&self, src: NodeId, tid: usize, members: &[NodeId]) -> u64 {
        let rows = self.rows.lock();
        let flow = |dst| rows.get(&(src, tid as u16, dst)).copied().unwrap_or(0);
        members.iter().map(|&dst| flow(dst)).min().unwrap_or(0)
    }

    pub(crate) fn advance(&self, flow: Flow, rows: u64) {
        *self.rows.lock().entry(flow).or_insert(0) += rows;
    }

    /// Rows delivered over every flow.
    pub fn total_rows(&self) -> u64 {
        self.rows.lock().values().sum()
    }

    /// Forgets every flow: the query replays from row zero.
    pub fn clear(&self) {
        self.rows.lock().clear();
    }
}
